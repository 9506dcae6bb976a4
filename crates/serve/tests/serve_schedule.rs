//! Pins what the executor *does*: on one fixed graph, update stream and
//! scripted closed-loop query sequence, every `StatsSnapshot` counter the
//! executor owns is a literal, and so is an order-sensitive fold over
//! every response's `(epoch, value bits, degraded)`.
//!
//! One query is in flight at a time, so every sweep serves exactly one
//! query and the schedule — which reads hit a cached column, which replay
//! a delta chain, which run cold, which are flagged degraded — is a
//! function of the script alone: the same at 1 and 3 executors, and
//! different between `refresh_lag` 8 (whole-graph columns refresh every
//! eighth epoch) and 1 (they chase every epoch). PageRank catches up by
//! its residual at every refresh after its first, cold run; CC runs cold
//! at every refresh under both. A change to how
//! columns are cached, replayed or evicted that is meant to keep
//! behaviour leaves these literals untouched.

use std::time::{Duration, Instant};

use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::{OverlayGraph, VertexId};
use gp_serve::{Query, ServeConfig, Server};
use gp_stream::UpdateStream;

const VERTICES: usize = 512;
const ROUNDS: u32 = 24;
const WEIGHTS: WeightMode = WeightMode::Uniform(1.0, 9.0);

/// `served_by_class` ×5, degraded, cold_runs, warm_starts, fused_runs,
/// path_cache_hits, path_warm_starts, sweeps.
type Counts = [u64; 12];

/// One round's queries, in submission order.
fn script(round: u32) -> Vec<Query> {
    let v = VertexId::new;
    let dst = v((round * 37 + 11) % VERTICES as u32);
    let mut queries = vec![Query::PageRank { v: dst }, Query::Components { v: dst }];
    for src in [0, 13, 26].map(v) {
        queries.push(Query::Sssp { src, dst });
        queries.push(Query::Bfs { src, dst });
        queries.push(Query::Sswp { src, dst });
    }
    if round.is_multiple_of(11) {
        // Re-read eleven epochs apart: past the longest replay chain.
        queries.push(Query::Sssp { src: v(39), dst });
    }
    // Hits on columns the round already brought to the current epoch.
    queries.push(Query::Sssp {
        src: v(0),
        dst: v(1),
    });
    queries.push(Query::PageRank { v: v(1) });
    queries
}

/// Runs the script and returns the executor's counters and the response
/// fold.
fn run(executors: usize, refresh_lag: usize) -> (Counts, u64) {
    let g = rmat(
        &RmatConfig::graph500(VERTICES, 8 * VERTICES).with_weights(WEIGHTS),
        9,
    );
    let mut shadow = OverlayGraph::new(g.clone());
    let mut stream = UpdateStream::new(VERTICES, 0.3, WEIGHTS, 13);
    let handle = Server::start(
        g,
        ServeConfig {
            executors,
            refresh_lag,
            ..ServeConfig::default()
        },
    );
    let client = handle.client();
    let updater = handle.updater();
    let tenant = client.tenant_id("default").expect("default tenant");

    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| fold = (fold ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    for round in 0..ROUNDS {
        for query in script(round) {
            let r = client.query(tenant, query).expect("admitted");
            mix(r.epoch);
            mix(r.value.to_bits());
            mix(u64::from(r.degraded));
        }
        let updates = stream.next_batch(&shadow, 16);
        shadow.apply(&updates);
        let before = updater.current_epoch();
        assert!(updater.submit(updates));
        let deadline = Instant::now() + Duration::from_secs(30);
        while updater.current_epoch() == before || updater.lag() != 0 {
            assert!(Instant::now() < deadline, "batch {round} never published");
            std::thread::yield_now();
        }
    }

    let s = handle.shutdown();
    assert_eq!(s.rejected, 0);
    assert_eq!(s.epochs_published, u64::from(ROUNDS));
    let [pr, cc, sssp, bfs, sswp] = s.served_by_class;
    let counts = [
        pr,
        cc,
        sssp,
        bfs,
        sswp,
        s.degraded,
        s.cold_runs,
        s.warm_starts,
        s.fused_runs,
        s.path_cache_hits,
        s.path_warm_starts,
        s.sweeps,
    ];
    (counts, fold)
}

fn assert_schedule(refresh_lag: usize, want: Counts, want_fold: u64) {
    for executors in [1, 3] {
        let (counts, fold) = run(executors, refresh_lag);
        let label = format!("{executors} executor(s), refresh_lag {refresh_lag}");
        assert_eq!(counts, want, "{label}");
        assert_eq!(fold, want_fold, "{label}: response fold {fold:#018x}");
    }
    assert_eq!(run(1, refresh_lag), (want, want_fold), "second run differs");
}

#[test]
fn whole_graph_columns_refresh_every_eighth_epoch() {
    // 3 whole-graph reads x 21 rounds inside a refresh window are degraded.
    // Refreshes at epochs 0, 8, 16: CC runs cold at all three; PageRank
    // runs cold at 0 and catches up by its residual at 8 and 16. Path
    // columns replay one delta per round (9 x 23) and run cold only at
    // first sight (9 + source 39) or eleven epochs on (source 39 twice
    // more).
    assert_schedule(
        8,
        [48, 24, 99, 72, 72, 63, 4, 2, 12, 24, 207, 315],
        0x0295_3334_0a82_8224,
    );
}

#[test]
fn whole_graph_columns_chase_every_epoch_warm_until_the_streak_cap() {
    // PageRank: cold at epoch 0, then a residual catch-up at each of the
    // 23 epochs after it, with no streak cap: 23 warm, 1 cold. CC: cold
    // at all 24 epochs.
    assert_schedule(
        1,
        [48, 24, 99, 72, 72, 0, 25, 23, 12, 24, 207, 315],
        0xc6cf_08e2_c04c_067e,
    );
}
