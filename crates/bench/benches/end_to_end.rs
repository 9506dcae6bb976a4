//! Bench behind EXPERIMENTS.md "Shard-parallel engine": the worker sweep.
//!
//! The sweep runs PageRank-Delta on a 2^18-vertex R-MAT through
//! the shard-parallel engine at 1/2/4/8 workers. The engine guarantees
//! bit-identical vertex values, cycle counts, and reports for every
//! worker count, so the only thing that changes is how the shard
//! work is spread over threads. The table reports two self-relative
//! speedups over the 1-worker run: wall-clock (capped by this host's
//! core count) and work-distribution (total shard ticks divided by the
//! critical-path worker's share — the deterministic speedup a host with
//! enough cores realizes). A last row runs the same graph and queue on the
//! sliced single machine (§IV-F: the slices take turns on one set of
//! units) — the engine the shards are an alternative to, and the wall
//! clock the worker rows have to beat to earn their place on this host.
//!
//! The sweep's shape can be overridden for quick runs via environment
//! variables: `SWEEP_LOG2_N` (default 18), `SWEEP_DEGREE` (default 4),
//! `SWEEP_SHARDS` (default 16), `SWEEP_EPS` (default 1e-3).

use std::time::Instant;

use gp_algorithms::PageRankDelta;
use gp_bench::print_table;
use gp_graph::generators::{rmat, RmatConfig};
use gp_graph::rng::{Rng, StdRng};
use graphpulse_core::{AcceleratorConfig, GraphPulse, QueueConfig};

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let log2_n: u32 = env_or("SWEEP_LOG2_N", 18);
    let degree: usize = env_or("SWEEP_DEGREE", 4);
    let shards: usize = env_or("SWEEP_SHARDS", 16);
    let eps: f64 = env_or("SWEEP_EPS", 1e-3);
    let n = 1usize << log2_n;

    println!("\n== end_to_end: shard-parallel worker sweep ==");
    println!(
        "   (2^{log2_n} = {n} vertices, {} edges, {shards} shards, eps {eps:e})\n",
        n * degree
    );

    let t0 = Instant::now();
    // Scatter the R-MAT hubs across the vertex range so contiguous shards
    // carry comparable event load (otherwise shard 0 serializes the run).
    let raw = rmat(&RmatConfig::graph500(n, n * degree), 42);
    let graph = raw.relabel(&StdRng::seed_from_u64(7).permutation(n));
    drop(raw);
    println!("graph generated in {:.1} s", t0.elapsed().as_secs_f64());
    let algo = PageRankDelta::new(0.85, eps);

    // Shrink the queue so each shard holds n/shards vertices (the shard
    // count derives from capacity, never from the worker count — that is
    // what keeps results worker-independent).
    let per_shard = n / shards;
    let mut cfg = AcceleratorConfig::optimized();
    cfg.queue = QueueConfig {
        bins: 8,
        rows: per_shard / 64,
        cols: 8,
    };
    assert_eq!(
        cfg.queue.capacity(),
        per_shard,
        "shard size must divide evenly"
    );
    cfg.input_buffer = 64;
    cfg.parallel.epoch_cycles = 16_384;

    // The wall-clock column depends on how many hardware cores this host
    // exposes; the work column is host-independent — it divides the total
    // simulation work (ticks, identical for every worker count) by the
    // critical-path worker's share, i.e. the speedup a host with enough
    // cores realizes.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("host exposes {cores} hardware thread(s); wall-clock speedup is capped there\n");

    let work_speedup = |ticks: &[u64], workers: usize| -> f64 {
        let chunk = ticks.len().div_ceil(workers);
        let total: u64 = ticks.iter().sum();
        let critical: u64 = ticks
            .chunks(chunk)
            .map(|c| c.iter().sum())
            .max()
            .unwrap_or(1);
        total as f64 / critical.max(1) as f64
    };

    let mut rows = Vec::new();
    let mut base_secs = 0.0f64;
    let mut base_cycles = 0u64;
    let mut speedup4 = 0.0f64;
    for workers in [1usize, 2, 4, 8] {
        cfg.parallel.workers = workers;
        let accel = GraphPulse::new(cfg.clone());
        let t0 = Instant::now();
        let out = accel.run_parallel(&graph, &algo).expect("parallel run");
        let secs = t0.elapsed().as_secs_f64();
        if workers == 1 {
            base_secs = secs;
            base_cycles = out.report.cycles;
        }
        assert_eq!(
            out.report.cycles, base_cycles,
            "parallel engine must be cycle-deterministic across worker counts"
        );
        let work = work_speedup(&out.shard_ticks, workers);
        if workers == 4 {
            speedup4 = work;
        }
        println!(
            "workers={workers:<2} shards={:<3} {:>9.1} ms  wall speedup {:>5.2}x  work speedup {:>5.2}x",
            out.shards,
            secs * 1e3,
            base_secs / secs,
            work,
        );
        rows.push(vec![
            workers.to_string(),
            out.shards.to_string(),
            format!("{:.1}", secs * 1e3),
            format!("{:.2}", base_secs / secs),
            format!("{:.2}", work),
            out.report.cycles.to_string(),
        ]);
    }
    let t0 = Instant::now();
    let sliced = GraphPulse::new(cfg.clone())
        .run(&graph, &algo)
        .expect("sliced run");
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "sliced     slices={:<3} {:>9.1} ms  wall speedup {:>5.2}x",
        sliced.report.slices,
        secs * 1e3,
        base_secs / secs,
    );
    rows.push(vec![
        "sliced".to_string(),
        sliced.report.slices.to_string(),
        format!("{:.1}", secs * 1e3),
        format!("{:.2}", base_secs / secs),
        "-".to_string(),
        sliced.report.cycles.to_string(),
    ]);
    print_table(
        "end_to_end worker sweep (R-MAT, PageRank-Delta)",
        &[
            "workers",
            "shards",
            "ms",
            "wall_speedup",
            "work_speedup",
            "cycles",
        ],
        &rows,
    );
    assert!(
        speedup4 >= 2.0,
        "4-worker work-distribution speedup {speedup4:.2}x fell below 2x: shards are imbalanced"
    );
    println!("\n4-worker work-distribution speedup: {speedup4:.2}x (>= 2x required)");
}
