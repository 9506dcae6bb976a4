//! `streaming` — update-stream benchmark: incremental recomputation vs
//! full recompute on an R-MAT edge-update stream.
//!
//! For each of the five incremental-capable algorithms (PRD, SSSP, BFS,
//! CC, SSWP — Adsorption has no incremental seeding rule, so `--apps` is
//! ignored here) the bench:
//!
//! 1. builds an R-MAT graph (`--vertices`, default 2^16) and fully
//!    converges on the accelerator model (the shard-parallel engine when
//!    `--workers` is given),
//! 2. streams `--batches` batches of `--batch-size` edge updates with a
//!    `--delete-frac` deletion mix through the [`gp_stream`] overlay +
//!    incremental engine, re-converging after every batch,
//! 3. runs one cold full recompute on the final mutated graph, and
//!    reports events per update, mean re-convergence cycles per batch,
//!    and the incremental-vs-full speedup.

use gp_algorithms::{Bfs, ConnectedComponents, IncrementalAlgorithm, PageRankDelta, Sssp, Sswp};
use gp_bench::{print_table, HarnessConfig, PR_EPS};
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::stats::max_out_degree_vertex;
use gp_graph::{GraphView, VertexId};
use gp_stream::{Backend, IncrementalEngine, StreamConfig, UpdateStream};
use graphpulse_core::{AcceleratorConfig, GraphPulse};

fn accel_config(cfg: &HarnessConfig) -> AcceleratorConfig {
    let mut ac = AcceleratorConfig::optimized();
    if let Some(w) = cfg.workers {
        ac.parallel.workers = w.max(1);
    }
    if let Some(e) = cfg.epoch_cycles {
        ac.parallel.epoch_cycles = e;
    }
    ac
}

fn backend(cfg: &HarnessConfig) -> Backend {
    let ac = Box::new(accel_config(cfg));
    match cfg.workers {
        Some(_) => Backend::Parallel(ac),
        None => Backend::Accelerator(ac),
    }
}

fn run_app<A: IncrementalAlgorithm>(
    label: &str,
    make: impl FnOnce(VertexId) -> A,
    weights: WeightMode,
    cfg: &HarnessConfig,
    rows: &mut Vec<Vec<String>>,
) {
    let n = cfg.stream_vertices.max(2);
    let graph = rmat(
        &RmatConfig::graph500(n, 8 * n).with_weights(weights),
        cfg.seed,
    );
    let algo = make(max_out_degree_vertex(&graph));
    let stream_config = StreamConfig {
        backend: backend(cfg),
        compact_fraction: 0.25,
    };
    let (mut engine, init) =
        IncrementalEngine::new(algo, graph, stream_config).expect("initial convergence failed");
    let mut stream = UpdateStream::new(n, cfg.delete_fraction, weights, cfg.seed ^ 0x57EA);

    let mut updates = 0u64;
    let mut events = 0u64;
    let mut dirty = 0u64;
    let mut cycles = 0u64;
    let mut compactions = 0u64;
    for _ in 0..cfg.batches {
        let batch = stream.next_batch(engine.graph(), cfg.batch_size);
        let r = engine
            .apply_batch(&batch)
            .expect("incremental batch failed");
        updates += (r.inserts + r.deletes) as u64;
        events += r.events_processed;
        dirty += r.dirty_vertices as u64;
        cycles += r.cycles;
        compactions += u64::from(r.compacted);
    }

    // Cold full recompute on the final mutated graph, same backend.
    let accel = GraphPulse::new(accel_config(cfg));
    let full_cycles = match cfg.workers {
        Some(_) => {
            accel
                .run_parallel(engine.graph(), engine.algo())
                .expect("full recompute failed")
                .report
                .cycles
        }
        None => {
            accel
                .run(engine.graph(), engine.algo())
                .expect("full recompute failed")
                .report
                .cycles
        }
    };

    let batches = cfg.batches.max(1) as u64;
    let mean_cycles = cycles as f64 / batches as f64;
    let speedup = full_cycles as f64 / mean_cycles.max(1.0);
    rows.push(vec![
        label.to_string(),
        engine.graph().num_edges().to_string(),
        updates.to_string(),
        format!("{:.1}", dirty as f64 / batches as f64),
        format!("{:.1}", events as f64 / updates.max(1) as f64),
        format!("{:.0}", mean_cycles),
        init.cycles.to_string(),
        full_cycles.to_string(),
        format!("{speedup:.1}x"),
        compactions.to_string(),
    ]);
}

fn main() {
    let cfg = HarnessConfig::from_args(std::env::args().skip(1));
    let n = cfg.stream_vertices.max(2);
    println!(
        "Streaming updates: {n}-vertex R-MAT, {} batches x {} updates, \
         {:.0}% deletions, seed {}, backend {}",
        cfg.batches,
        cfg.batch_size,
        cfg.delete_fraction * 100.0,
        cfg.seed,
        match cfg.workers {
            Some(w) => format!("parallel ({w} workers)"),
            None => "sequential".to_string(),
        },
    );

    let weighted = WeightMode::Uniform(1.0, 10.0);
    let mut rows = Vec::new();
    run_app(
        "PRD",
        |_| PageRankDelta::new(0.85, PR_EPS),
        WeightMode::Unweighted,
        &cfg,
        &mut rows,
    );
    run_app("SSSP", Sssp::new, weighted, &cfg, &mut rows);
    run_app("BFS", Bfs::new, WeightMode::Unweighted, &cfg, &mut rows);
    run_app(
        "CC",
        |_| ConnectedComponents::new(),
        WeightMode::Unweighted,
        &cfg,
        &mut rows,
    );
    run_app("SSWP", Sswp::new, weighted, &cfg, &mut rows);

    print_table(
        "Update streams — incremental vs full recompute",
        &[
            "app",
            "edges",
            "net updates",
            "dirty/batch",
            "events/update",
            "inc cycles/batch",
            "init cycles",
            "full cycles",
            "speedup",
            "compactions",
        ],
        &rows,
    );
}
