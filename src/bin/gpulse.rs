//! `gpulse` — command-line front end for the GraphPulse reproduction.
//!
//! Runs any bundled application on any execution backend over a synthetic
//! workload or an edge-list file, printing the execution report and
//! optionally dumping the final vertex values.
//!
//! ```text
//! gpulse --app pr --backend accel --workload LJ --scale 512
//! gpulse --app sssp --backend ligra --graph path/to/edges.txt --root 5
//! gpulse --app cc --backend graphicionado --workload WG --values out.csv
//! ```

use std::process::ExitCode;

use graphpulse::algorithms::{
    normalize_inbound, Adsorption, AdsorptionParams, Bfs, ConnectedComponents, PageRankDelta, Sssp,
    Sswp,
};
use graphpulse::baselines::graphicionado::{self, GraphicionadoConfig};
use graphpulse::baselines::ligra::{apps, LigraConfig};
use graphpulse::core::{AcceleratorConfig, GraphPulse};
use graphpulse::graph::generators::WeightMode;
use graphpulse::graph::stats::max_out_degree_vertex;
use graphpulse::graph::workloads::Workload;
use graphpulse::graph::{io, CsrGraph, VertexId};

const USAGE: &str = "\
gpulse — event-driven graph-processing accelerator (GraphPulse, MICRO 2020)

USAGE: gpulse [OPTIONS]

  --app <pr|ppr|ads|sssp|bfs|cc|sswp>   application to run (default pr)
  --backend <accel|base|ligra|graphicionado>
                                        execution backend (default accel)
  --workload <WG|FB|WK|LJ|TW|RD>        synthetic Table IV profile (default WG)
  --scale <N>                           1/N of the published size (default 512)
  --graph <FILE>                        edge-list file instead of a workload
  --seed <S>                            RNG seed (default 42)
  --root <V>                            root vertex for BFS/SSSP/SSWP/PPR
                                        (default: highest out-degree)
  --threads <T>                         ligra backend threads
  --values <FILE>                       write final vertex values as CSV
  --help                                this message
";

struct Args {
    app: String,
    backend: String,
    workload: Workload,
    scale: usize,
    graph_file: Option<String>,
    seed: u64,
    root: Option<u32>,
    threads: Option<usize>,
    values_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        app: "pr".into(),
        backend: "accel".into(),
        workload: Workload::WebGoogle,
        scale: 512,
        graph_file: None,
        seed: 42,
        root: None,
        threads: None,
        values_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("flag {flag} needs a value"));
        match flag.as_str() {
            "--app" => args.app = val()?,
            "--backend" => args.backend = val()?,
            "--workload" => {
                let name = val()?;
                args.workload = Workload::parse(&name)
                    .ok_or_else(|| format!("unknown workload {}", name.to_ascii_uppercase()))?;
            }
            "--scale" => {
                args.scale = val()?.parse().map_err(|e| format!("--scale: {e}"))?;
                if args.scale == 0 {
                    return Err("--scale must be at least 1".into());
                }
            }
            "--graph" => args.graph_file = Some(val()?),
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--root" => args.root = Some(val()?.parse().map_err(|e| format!("--root: {e}"))?),
            "--threads" => {
                args.threads = Some(val()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--values" => args.values_out = Some(val()?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn load_graph(args: &Args, weighted: bool) -> Result<CsrGraph, String> {
    if let Some(path) = &args.graph_file {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return io::read_edge_list(file, None).map_err(|e| e.to_string());
    }
    let mode = if weighted {
        WeightMode::Uniform(1.0, 10.0)
    } else {
        WeightMode::Unweighted
    };
    Ok(args
        .workload
        .synthesize_weighted(args.scale, mode, args.seed))
}

/// `(values, simulated-or-measured seconds, human summary)`.
fn run(args: &Args) -> Result<(Vec<f64>, f64, String), String> {
    let weighted = matches!(args.app.as_str(), "sssp" | "sswp" | "ads");
    let graph = load_graph(args, weighted)?;
    eprintln!("graph: {graph}");
    let n = graph.num_vertices();
    if n == 0 {
        return Err("the graph has no vertices".into());
    }
    if let Some(v) = args.root.filter(|&v| v as usize >= n) {
        return Err(format!(
            "--root {v} is out of range: the graph has {n} vertices"
        ));
    }
    let root = args
        .root
        .map_or_else(|| max_out_degree_vertex(&graph), VertexId::new);

    // Adsorption needs normalized weights + parameters.
    let (graph, params) = if args.app == "ads" {
        let normalized = normalize_inbound(&graph);
        let params = AdsorptionParams::random(normalized.num_vertices(), args.seed ^ 0xAD50);
        (normalized, Some(params))
    } else {
        (graph, None)
    };

    match args.backend.as_str() {
        "accel" | "base" => {
            let config = if args.backend == "accel" {
                AcceleratorConfig::optimized()
            } else {
                AcceleratorConfig::baseline()
            };
            let accel = GraphPulse::new(config);
            let outcome = match args.app.as_str() {
                "pr" => accel.run(&graph, &PageRankDelta::new(0.85, 1e-7)),
                "ppr" => accel.run(
                    &graph,
                    &PageRankDelta::personalized(0.85, 1e-9, graph.num_vertices(), &[root]),
                ),
                "ads" => accel.run(&graph, &Adsorption::new(params.expect("params"), 1e-7)),
                "sssp" => accel.run(&graph, &Sssp::new(root)),
                "bfs" => accel.run(&graph, &Bfs::new(root)),
                "cc" => accel.run(&graph, &ConnectedComponents::new()),
                "sswp" => accel.run(&graph, &Sswp::new(root)),
                other => return Err(format!("unknown app {other}")),
            }
            .map_err(|e| e.to_string())?;
            let r = &outcome.report;
            let summary = format!(
                "{} cycles ({:.3} ms simulated) | {} rounds, {} slices | \
                 events: {} generated, {} processed, {:.1}% coalesced | \
                 off-chip: {} accesses, {:.1} MB, {:.0}% utilized | {:.1} mW avg",
                r.cycles,
                r.seconds * 1e3,
                r.rounds,
                r.slices,
                r.events_generated,
                r.events_processed,
                100.0 * r.coalesce_rate(),
                r.memory.total_accesses(),
                r.memory.total_bytes() as f64 / 1e6,
                100.0 * r.memory.utilization(),
                r.energy.total_mw,
            );
            Ok((outcome.values, r.seconds, summary))
        }
        "ligra" => {
            let mut cfg = LigraConfig::default();
            if let Some(t) = args.threads {
                cfg.threads = t;
            }
            let out = match args.app.as_str() {
                "pr" => apps::pagerank_delta(&graph, 0.85, 1e-7, &cfg),
                "ads" => apps::adsorption(&graph, &params.expect("params"), 1e-7, &cfg),
                "sssp" => apps::sssp(&graph, root, &cfg),
                "bfs" => apps::bfs(&graph, root, &cfg),
                "cc" => apps::cc(&graph, &cfg),
                other => return Err(format!("app {other} not available on the ligra backend")),
            };
            let secs = out.elapsed.as_secs_f64();
            let summary = format!(
                "{:.3} ms measured on {} threads | {} iterations",
                secs * 1e3,
                cfg.threads,
                out.iterations
            );
            Ok((out.values, secs, summary))
        }
        "graphicionado" => {
            let cfg = GraphicionadoConfig::default();
            let out = match args.app.as_str() {
                "pr" => graphicionado::run(&graph, &PageRankDelta::new(0.85, 1e-7), &cfg),
                "ads" => graphicionado::run(
                    &graph,
                    &Adsorption::new(params.expect("params"), 1e-7),
                    &cfg,
                ),
                "sssp" => graphicionado::run(&graph, &Sssp::new(root), &cfg),
                "bfs" => graphicionado::run(&graph, &Bfs::new(root), &cfg),
                "cc" => graphicionado::run(&graph, &ConnectedComponents::new(), &cfg),
                "sswp" => graphicionado::run(&graph, &Sswp::new(root), &cfg),
                other => return Err(format!("unknown app {other}")),
            };
            let summary = format!(
                "{} cycles ({:.3} ms simulated) | {} BSP iterations | {} edges processed",
                out.cycles,
                out.seconds * 1e3,
                out.iterations,
                out.edges_processed
            );
            Ok((out.values, out.seconds, summary))
        }
        other => Err(format!("unknown backend {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok((values, _secs, summary)) => {
            println!("{summary}");
            if let Some(path) = &args.values_out {
                let mut csv = String::from("vertex,value\n");
                for (v, x) in values.iter().enumerate() {
                    csv.push_str(&format!("{v},{x}\n"));
                }
                if let Err(e) = std::fs::write(path, csv) {
                    eprintln!("error writing {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {} values to {path}", values.len());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
