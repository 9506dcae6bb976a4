//! `stream-r16`: two turbo-backed incremental engines (SSSP and
//! PageRank-delta) over one graph; one pass pushes `STEPS` update batches
//! through both. Hundreds of tiny warm-seeded turbo runs where the per-run
//! fixed cost (wheel and pool allocation) dominates, and overlay writes
//! beside reads: the opposite regime to `accum-r16` on the same layers.
//!
//! An order statistic cannot see what does not happen in every pass, so
//! the compaction threshold is sized for about ten compactions per pass.

use gp_algorithms::{
    incremental_seeds, max_abs_diff, DeltaAlgorithm, IncrementalAlgorithm, PageRankDelta,
    SeedingStrategy, Sssp,
};
use gp_graph::{CsrGraph, EdgeUpdate, OverlayGraph};
use gp_stream::{Backend, BatchReport, IncrementalEngine, StreamConfig, UpdateStream};
use gp_turbo::{run_turbo_seeded, TurboConfig};

use super::{graph_layers, hubs, matches_golden, pagerank, resident_rmat, WEIGHTS};
use crate::harness::{Layers, Params, Pass, Workload};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Update batches per pass, each applied to both engines.
const STEPS: usize = 16;
const BATCH: usize = 96;
/// Half deletions, so the edge count is stationary over any run length.
const DELETE_FRACTION: f64 = 0.5;
/// The patch pool grows by about 2.4 % of the base per batch here, so each
/// engine compacts every third batch: five or six times a pass.
const COMPACT_FRACTION: f64 = 0.06;

type State<A> = (OverlayGraph, Vec<<A as DeltaAlgorithm>::Value>);

/// The golden-backed engine a drifting lane is checked against, or the
/// graph it will start from once the first check needs it.
enum Twin<A: IncrementalAlgorithm> {
    Unbuilt(CsrGraph),
    Built(IncrementalEngine<A>),
}

struct Lane<A: IncrementalAlgorithm> {
    engine: IncrementalEngine<A>,
    /// Present for an algorithm whose incremental state drifts.
    twin: Option<Twin<A>>,
    /// Events processed and stale wheel entries of the replayed seeded runs.
    processed: u64,
    stale: u64,
}

impl<A: IncrementalAlgorithm + Clone + std::fmt::Debug> Lane<A> {
    fn new(algo: A, base: CsrGraph, tr: &mut Tracer) -> Lane<A> {
        let config = StreamConfig {
            backend: Backend::Turbo(TurboConfig::default()),
            compact_fraction: COMPACT_FRACTION,
        };
        let twin = (algo.strategy() == SeedingStrategy::DeltaCorrection)
            .then(|| Twin::Unbuilt(base.clone()));
        let (engine, _) = tr
            .span("IncrementalEngine::new", |_| {
                IncrementalEngine::new(algo, base, config)
            })
            .expect("the turbo backend cannot fail");
        Lane {
            engine,
            twin,
            processed: 0,
            stale: 0,
        }
    }

    fn apply(&mut self, batch: &[EdgeUpdate], tr: &mut Tracer) -> Option<BatchReport> {
        tr.span("apply_batch", |_| self.engine.apply_batch(batch))
            .ok()
    }

    /// The state a replay starts from: the overlay shares its base, so the
    /// copy costs the patch tables and one value vector.
    fn state(&self) -> State<A> {
        (
            self.engine.graph().clone(),
            self.engine.typed_values().to_vec(),
        )
    }

    /// Replays `batch` on a copy of the pre-batch state through the public
    /// pieces `apply_batch` is made of, which is the only way to see them
    /// from outside; returns the seconds the seeded turbo run took.
    fn replay(
        &mut self,
        before: State<A>,
        batch: &[EdgeUpdate],
        compacted: bool,
        tr: &mut Tracer,
    ) -> f64 {
        let (mut graph, mut values) = before;
        let algo = self.engine.algo();
        let applied = tr.span("OverlayGraph::apply", |_| graph.apply(batch));
        let mut seeded_s = 0.0;
        if !applied.is_empty() {
            let plan = tr.span("incremental_seeds", |_| {
                incremental_seeds(algo, &graph, &mut values, &applied)
            });
            let t0 = tr.now();
            let out = run_turbo_seeded(
                algo,
                &graph,
                &mut values,
                &plan.seeds,
                &TurboConfig::default(),
            );
            let t1 = tr.now();
            tr.record("run_turbo_seeded", t0, t1);
            seeded_s = (t1 - t0) as f64 * 1e-9;
            self.processed += out.events_processed;
            self.stale += out.stale_entries;
        }
        if compacted {
            tr.span("OverlayGraph::compact", |_| graph.compact());
        }
        seeded_s
    }

    /// Whether the engine's state is wrong after `batches` more batches.
    ///
    /// A monotone algorithm's incremental state is exact, so it is held to
    /// a golden from-scratch solve of the current graph. Delta-correction
    /// PageRank is not: it drifts from the from-scratch fixed point by
    /// about 1 % of its comparison tolerance per batch whatever the backend
    /// (measured at 2^16, threshold 1e-3), so after a few hundred batches a
    /// from-scratch check would fail the algorithm, not the layers under
    /// test. Its reference is the same incremental computation on the
    /// golden engine, fed the same batches.
    fn wrong(&mut self, batches: &[Vec<EdgeUpdate>]) -> u64 {
        let algo = self.engine.algo();
        let ok = if let Some(twin) = &mut self.twin {
            if let Twin::Unbuilt(base) = twin {
                let config = StreamConfig::golden(COMPACT_FRACTION);
                let (built, _) = IncrementalEngine::new(algo.clone(), base.clone(), config)
                    .expect("golden cannot fail");
                *twin = Twin::Built(built);
            }
            let Twin::Built(twin) = twin else {
                unreachable!("built above")
            };
            for batch in batches {
                twin.apply_batch(batch).expect("golden cannot fail");
            }
            max_abs_diff(&self.engine.values(), &twin.values()) <= algo.comparison_tolerance()
        } else {
            matches_golden(algo, &self.engine.graph().to_csr(), &self.engine.values())
        };
        if !ok {
            eprintln!("MISMATCH {algo:?}: incremental state is outside tolerance of its reference");
        }
        u64::from(!ok)
    }
}

pub struct Stream {
    sssp: Lane<Sssp>,
    prd: Lane<PageRankDelta>,
    updates: UpdateStream,
    /// Batches the twins have not seen yet.
    unchecked: Vec<Vec<EdgeUpdate>>,
    /// Per timed step of the traced run: both engines' reports summed, and
    /// the seconds of both replayed seeded runs.
    reports: Vec<BatchReport>,
    seeded_s: Vec<f64>,
    compactions: u64,
}

impl Workload for Stream {
    fn setup(p: &Params, tr: &mut Tracer) -> Stream {
        let graph = resident_rmat(p.log2(16), p.seed, tr);
        let root = hubs(&graph, 1)[0];
        Stream {
            updates: UpdateStream::new(
                graph.num_vertices(),
                DELETE_FRACTION,
                WEIGHTS,
                p.seed ^ 0xDE1A,
            ),
            sssp: Lane::new(Sssp::new(root), graph.clone(), tr),
            prd: Lane::new(pagerank(), graph, tr),
            unchecked: Vec::new(),
            reports: Vec::new(),
            seeded_s: Vec::new(),
            compactions: 0,
        }
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for _ in 0..STEPS {
            // Both overlays receive the same batches, so either describes
            // the current edge set.
            let batch = self.updates.next_batch(self.sssp.engine.graph(), BATCH);
            let before = tr.on.then(|| (self.sssp.state(), self.prd.state()));
            let reports = tr.span("step", |tr| {
                [self.sssp.apply(&batch, tr), self.prd.apply(&batch, tr)]
            });
            pass.attempted += 2;
            let mut sum = BatchReport::default();
            for r in reports.iter().flatten() {
                sum.dirty_vertices += r.dirty_vertices;
                sum.events_processed += r.events_processed;
                sum.invalidated += r.invalidated;
                self.compactions += u64::from(r.compacted);
            }
            pass.failed += reports.iter().filter(|r| r.is_none()).count() as u64;
            if let Some((sssp, prd)) = before {
                let compacted = |i: usize| reports[i].is_some_and(|r| r.compacted);
                let seeded_s = tr.span("replay", |tr| {
                    self.sssp.replay(sssp, &batch, compacted(0), tr)
                        + self.prd.replay(prd, &batch, compacted(1), tr)
                });
                self.reports.push(sum);
                self.seeded_s.push(seeded_s);
            }
            self.unchecked.push(batch);
        }
        pass
    }

    fn verify(&mut self) -> u64 {
        let batches = std::mem::take(&mut self.unchecked);
        self.sssp.wrong(&batches) + self.prd.wrong(&batches)
    }

    fn layers(&self, tr: &Tracer, passes: usize, out: &mut Layers) {
        graph_layers(tr, out);
        // Two engines converge per set-up repetition.
        let converge_s = tr.seconds_per_pass("IncrementalEngine::new", false);
        out.set("stream.initial_converge_s", median(&converge_s));
        out.set(
            "graph.overlay_apply_s",
            median(&tr.seconds("OverlayGraph::apply", true)),
        );
        out.set(
            "graph.overlay_compact_s",
            median(&tr.seconds("OverlayGraph::compact", true)),
        );

        let step_ms: Vec<f64> = tr.seconds("step", true).iter().map(|s| s * 1e3).collect();
        out.set("stream.batch_ms_p50", percentile(&step_ms, 0.5));
        out.set("stream.batch_ms_p90", percentile(&step_ms, 0.9));
        let steps = self.reports.len().max(1) as f64;
        let mean = |f: fn(&BatchReport) -> f64| self.reports.iter().map(f).sum::<f64>() / steps;
        out.set("stream.dirty_per_batch", mean(|r| r.dirty_vertices as f64));
        out.set(
            "stream.events_per_batch",
            mean(|r| r.events_processed as f64),
        );
        out.set(
            "stream.invalidated_per_batch",
            mean(|r| r.invalidated as f64),
        );
        out.set(
            "stream.compactions",
            self.compactions as f64 / passes as f64,
        );

        let seeded_us: Vec<f64> = self.seeded_s.iter().map(|s| s * 1e6).collect();
        out.set("turbo.seeded_run_us_p50", median(&seeded_us));
        let processed = (self.sssp.processed + self.prd.processed) as f64;
        let stale = (self.sssp.stale + self.prd.stale) as f64;
        out.set("turbo.useful_ratio", processed / (processed + stale));
    }
}
