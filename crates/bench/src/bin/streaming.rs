//! `streaming` — update-stream benchmark: incremental recomputation vs
//! full recompute on an R-MAT edge-update stream.
//!
//! For each incremental-capable row of the application table (`--apps`,
//! default all five: PRD, SSSP, BFS, CC, SSWP — Adsorption has no
//! incremental seeding rule) the bench:
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

use gp_algorithms::{with_algorithm, App, AppInputs, IncrementalAlgorithm};
use gp_bench::{print_table, HarnessConfig, EPS};
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::stats::max_out_degree_vertex;
use gp_graph::{CsrGraph, GraphView};
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

/// One table row: `app` on its own R-MAT (weighted when the app reads
/// weights), rooted at the highest out-degree vertex.
fn run_app(app: App, cfg: &HarnessConfig) -> Vec<String> {
    let n = cfg.stream_vertices.max(2);
    let weights = if app.weighted() {
        WeightMode::Uniform(1.0, 10.0)
    } else {
        WeightMode::Unweighted
    };
    let graph = rmat(
        &RmatConfig::graph500(n, 8 * n).with_weights(weights),
        cfg.seed,
    );
    let inputs = AppInputs {
        root: max_out_degree_vertex(&graph),
        threshold: EPS,
        adsorption: None,
    };
    with_algorithm!(incremental app, &inputs, |algo| stream(
        app.label(),
        algo,
        graph,
        weights,
        cfg
    ))
    .expect("--apps admits only incremental apps")
}

fn stream<A: IncrementalAlgorithm + Clone>(
    label: &str,
    algo: &A,
    graph: CsrGraph,
    weights: WeightMode,
    cfg: &HarnessConfig,
) -> Vec<String> {
    let n = cfg.stream_vertices.max(2);
    let stream_config = StreamConfig {
        backend: backend(cfg),
        compact_fraction: 0.25,
    };
    let (mut engine, init) = IncrementalEngine::new(algo.clone(), graph, stream_config)
        .expect("initial convergence failed");
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
    vec![
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
    ]
}

/// `--scale`, `--workloads` and `--threads` belong to the evaluation grid;
/// an update stream has its own sizes.
const FLAGS: [&str; 8] = [
    "--seed",
    "--apps",
    "--workers",
    "--epoch-cycles",
    "--vertices",
    "--batches",
    "--batch-size",
    "--delete-frac",
];

fn main() {
    let incremental: Vec<App> = App::ALL.into_iter().filter(|a| a.incremental()).collect();
    let cfg = HarnessConfig::from_args(std::env::args().skip(1), &FLAGS, &incremental);
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

    let rows: Vec<Vec<String>> = cfg.apps.iter().map(|&app| run_app(app, &cfg)).collect();

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
