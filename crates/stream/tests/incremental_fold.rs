//! Pins the incremental step: for every incremental application on the
//! turbo and the golden backend, an FNV fold over every `BatchReport`
//! field and every value bit after each batch of a fixed update stream is
//! a literal.
//!
//! The stream is a 2^10 R-MAT with 40 % deletions and a compaction
//! threshold low enough that the overlay compacts every few batches, so
//! the fold covers the seed plan (invalidation, retract/grant coalescing,
//! the no-op filter), the seeded run of each backend, and compaction. A
//! change to how seeds are accumulated or how a run is driven that is
//! meant to keep behaviour leaves these literals untouched.

use gp_algorithms::{with_algorithm, App, AppInputs, IncrementalAlgorithm};
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::VertexId;
use gp_stream::{Backend, BatchReport, IncrementalEngine, StreamConfig, UpdateStream};
use gp_turbo::TurboConfig;

const VERTICES: usize = 1 << 10;
const BATCHES: usize = 24;
const BATCH: usize = 48;
const COMPACT_FRACTION: f64 = 0.02;

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn report(&mut self, r: &BatchReport) {
        for word in [
            r.inserts as u64,
            r.deletes as u64,
            r.invalidated as u64,
            r.dirty_vertices as u64,
            r.events_processed,
            r.events_generated,
            r.cycles,
            u64::from(r.compacted),
        ] {
            self.mix(word);
        }
    }
}

/// Runs the stream through one engine; returns the fold and the
/// compactions, net deletions and invalidations it saw.
fn run<A: IncrementalAlgorithm + Clone>(
    algo: &A,
    weights: WeightMode,
    backend: Backend,
) -> (u64, [usize; 3]) {
    let base = rmat(
        &RmatConfig::graph500(VERTICES, 8 * VERTICES).with_weights(weights),
        21,
    );
    let config = StreamConfig {
        backend,
        compact_fraction: COMPACT_FRACTION,
    };
    let (mut engine, first) = IncrementalEngine::new(algo.clone(), base, config).expect("run");
    let mut fold = Fold(0xcbf2_9ce4_8422_2325);
    fold.report(&first);
    let mut stream = UpdateStream::new(VERTICES, 0.4, weights, 77);
    let mut seen = [0; 3];
    for _ in 0..BATCHES {
        let batch = stream.next_batch(engine.graph(), BATCH);
        let report = engine.apply_batch(&batch).expect("run");
        fold.report(&report);
        for v in engine.values() {
            fold.mix(v.to_bits());
        }
        seen[0] += usize::from(report.compacted);
        seen[1] += report.deletes;
        seen[2] += report.invalidated;
    }
    (fold.0, seen)
}

fn fold_of(app: App, backend: Backend) -> u64 {
    let weights = if app.weighted() {
        WeightMode::Uniform(1.0, 9.0)
    } else {
        WeightMode::Unweighted
    };
    let inputs = AppInputs {
        root: VertexId::new(0),
        threshold: 1e-6,
        adsorption: None,
    };
    let (fold, [compactions, deletes, invalidated]) =
        with_algorithm!(incremental app, &inputs, |algo| run(algo, weights, backend))
            .expect("an incremental application");
    assert!(compactions >= 3, "{app:?}: {compactions} compaction(s)");
    assert!(deletes > 0, "{app:?}: the stream deleted nothing");
    // Every monotone application strands some value on this stream.
    assert_eq!(invalidated > 0, app != App::PageRank, "{app:?}");
    fold
}

#[test]
fn incremental_step_is_pinned_on_both_backends() {
    let apps: Vec<App> = App::ALL.into_iter().filter(|a| a.incremental()).collect();
    let mut got = Vec::new();
    for app in &apps {
        let turbo = fold_of(*app, Backend::Turbo(TurboConfig::default()));
        let golden = fold_of(*app, Backend::Golden);
        got.push((app.name(), turbo, golden));
    }
    let want = [
        ("pr", 0x88cb_4eca_549b_ebea, 0x5129_2883_995b_801b),
        ("sssp", 0xf5e4_c728_9bc1_4ef8, 0x9408_4488_80cc_0835),
        ("bfs", 0xf63e_4ca4_d49d_3c12, 0x2617_fbb2_994f_fe84),
        ("cc", 0x5e9a_2ef7_0fbc_609f, 0xcadf_913e_fdc9_d996),
        ("sswp", 0x5155_50af_7d5a_74b2, 0xc194_75be_83a0_77cf),
    ];
    assert_eq!(got, want, "incremental folds moved: {got:#x?}");
}
