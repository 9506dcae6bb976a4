//! The evaluation report: Tables III/IV, then every figure, Table V and the
//! reproduction verdict, all read off the one sweep `gp_bench::evaluate`
//! runs. The simulator-only tables come first (byte-reproducible for a scale
//! and seed; CSVs under `figures/`), the host-time ones after them (CSVs
//! named `*-host.csv`). `--apps` / `--workloads` subset the grid.
//!
//! ```text
//! cargo run -p gp-bench --release --bin report -- --scale 128
//! cargo run -p gp-bench --release --bin report -- --scale 128 --apps pr --workloads LJ
//! ```

use gp_algorithms::App;
use gp_bench::figures::{self, Table};
use gp_bench::{evaluate, HarnessConfig};
use gp_graph::stats::GraphStats;
use graphpulse_core::AcceleratorConfig;

/// The flags the evaluation reads; the grid's rows are Table II's five.
const FLAGS: [&str; 7] = [
    "--scale",
    "--seed",
    "--workloads",
    "--apps",
    "--threads",
    "--workers",
    "--epoch-cycles",
];

fn main() {
    let cfg = HarnessConfig::from_args(std::env::args().skip(1), &FLAGS, &App::PAPER);
    println!(
        "# GraphPulse evaluation report (scale 1/{}, seed {})",
        cfg.scale, cfg.seed
    );

    table_iii().print();
    table_iv(&cfg).print();
    let grid = evaluate(&cfg);
    println!("\n## Simulated (reproducible for this scale and seed)");
    figures::simulated(&grid).iter().for_each(Table::print);
    println!("\n## Host time (depends on the machine the software framework ran on)");
    figures::host_time(&grid).iter().for_each(Table::print);
}

fn table_iii() -> Table {
    let (opt, base) = (
        AcceleratorConfig::optimized(),
        AcceleratorConfig::baseline(),
    );
    let row = |parameter: &str, of: &dyn Fn(&AcceleratorConfig) -> String| {
        vec![parameter.to_string(), of(&opt), of(&base)]
    };
    let mut t = Table::new(
        "Table III — device configurations",
        "tab03-devices",
        &["parameter", "GraphPulse+opt", "GraphPulse-base"],
    );
    t.rows = vec![
        row("compute", &|c| {
            format!("{} processors @ {} GHz", c.processors, c.clock_ghz)
        }),
        row("gen streams/processor", &|c| c.gen_streams.to_string()),
        row("queue slots", &|c| c.queue.capacity().to_string()),
        row("prefetch", &|c| c.prefetch.to_string()),
        row("off-chip", &|c| {
            let dram = &c.dram;
            format!("{}x DDR3 {} B/cyc", dram.channels, dram.bytes_per_cycle)
        }),
    ];
    t
}

fn table_iv(cfg: &HarnessConfig) -> Table {
    let mut t = Table::new(
        "Table IV — workloads (published size vs. synthesized at this scale)",
        "tab04-workloads",
        &[
            "graph",
            "description",
            "pub V",
            "pub E",
            "syn V",
            "syn E",
            "avg deg",
            "skew",
        ],
    );
    t.rows = cfg
        .workloads
        .iter()
        .map(|w| {
            let g = w.synthesize(cfg.scale, cfg.seed);
            let s = GraphStats::compute(&g);
            vec![
                w.abbrev().to_string(),
                w.description().to_string(),
                format!("{:.2}M", w.full_vertices() as f64 / 1e6),
                format!("{:.2}M", w.full_edges() as f64 / 1e6),
                s.vertices.to_string(),
                s.edges.to_string(),
                format!("{:.1}", s.avg_out_degree),
                format!("{:.0}", s.skew()),
            ]
        })
        .collect();
    t
}
