//! Ablation study of the design choices DESIGN.md calls out: each §V
//! optimization and queue-geometry decision is varied in isolation on
//! PageRank-Delta over the LiveJournal profile, reporting cycles and
//! traffic. This extends the paper's opt-vs-baseline comparison (Fig. 10)
//! with per-mechanism attribution.
//!
//! ```text
//! cargo run -p gp-bench --release --bin ablations -- --scale 512
//! ```

use gp_algorithms::App;
use gp_bench::{gp_config, prepare, print_table, HarnessConfig};
use gp_graph::workloads::Workload;
use graphpulse_core::{AcceleratorConfig, QueueConfig, SchedulingPolicy};

/// The study's one cell is fixed, so `--apps`, `--workloads` and the
/// software framework's `--threads` have nothing to select.
const FLAGS: [&str; 4] = ["--scale", "--seed", "--workers", "--epoch-cycles"];

fn main() {
    let harness = HarnessConfig::from_args(std::env::args().skip(1), &FLAGS, &[App::PageRank]);
    let workload = Workload::LiveJournal;
    let prepared = prepare(workload, App::PageRank, harness.scale, harness.seed);
    println!(
        "Ablations — PageRank-Delta on {} (1/{} scale): {} vertices, {} edges",
        workload.abbrev(),
        harness.scale,
        prepared.graph.num_vertices(),
        prepared.graph.num_edges()
    );

    let base = gp_config(workload, &prepared.graph, true);
    let reference = harness.run_accelerator(App::PageRank, &prepared, &base);
    let ref_cycles = reference.report.cycles as f64;

    let mut rows = Vec::new();
    let mut run = |label: String, cfg: AcceleratorConfig| {
        let out = harness.run_accelerator(App::PageRank, &prepared, &cfg);
        let r = &out.report;
        rows.push(vec![
            label,
            r.cycles.to_string(),
            format!("{:.2}x", r.cycles as f64 / ref_cycles),
            r.memory.total_accesses().to_string(),
            format!("{:.0}%", 100.0 * r.memory.utilization()),
            format!("{:.0}%", 100.0 * r.coalesce_rate()),
        ]);
    };

    run("paper optimized (reference)".into(), base.clone());

    // §V optimization 1: vertex scratchpad prefetching.
    let mut c = base.clone();
    c.prefetch = false;
    run("- no vertex prefetch".into(), c);

    // §V optimization 2: parallel generation streams.
    for streams in [1usize, 2, 8] {
        let mut c = base.clone();
        c.gen_streams = streams;
        run(format!("- {streams} gen streams (vs 4)"), c);
    }

    // §V optimization 3: degree-hinted edge prefetch depth N.
    for depth in [1u64, 8] {
        let mut c = base.clone();
        c.edge_prefetch_depth = depth;
        run(format!("- edge prefetch N={depth} (vs 4)"), c);
    }

    // Queue geometry: row width (drain/prefetch block size).
    for cols in [8usize, 64] {
        let mut c = base.clone();
        let capacity = base.queue.capacity();
        let bins = base.queue.bins;
        c.queue = QueueConfig {
            bins,
            rows: capacity.div_ceil(bins * cols),
            cols,
        };
        c.input_buffer = c.input_buffer.max(cols);
        run(format!("- {cols}-wide rows (vs 32)"), c);
    }

    // Queue geometry: bin count (insertion parallelism).
    for bins in [16usize, 256] {
        let mut c = base.clone();
        let capacity = base.queue.capacity();
        let cols = base.queue.cols;
        c.queue = QueueConfig {
            bins,
            rows: capacity.div_ceil(bins * cols),
            cols,
        };
        run(format!("- {bins} bins (vs 64)"), c);
    }

    // Scheduling policy extension (§IV-C).
    let mut c = base.clone();
    c.scheduling = SchedulingPolicy::OccupancyFirst;
    run("+ occupancy-first scheduling".into(), c);

    // Coalescer pipeline depth (structural hazard window).
    let mut c = base.clone();
    c.coalescer_depth = 8;
    run("- 8-cycle coalescer (vs 4)".into(), c);

    print_table(
        "Single-change ablations (cycles relative to the paper configuration)",
        &[
            "configuration",
            "cycles",
            "rel",
            "offchip acc",
            "util",
            "coalesced",
        ],
        &rows,
    );
}
