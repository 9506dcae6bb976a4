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
    normalize_inbound, with_algorithm, AdsorptionParams, App, AppInputs, DeltaAlgorithm,
    PageRankDelta,
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

  --app <pr|ppr|ads|sssp|bfs|cc|sswp>   application to run (default pr); also
                                        PRD, pagerank, ADS, adsorption, any case
  --backend <accel|base|ligra|graphicionado>
                                        execution backend (default accel);
                                        ligra runs pr, ads, sssp, bfs, cc
  --workload <WG|FB|WK|LJ|TW|RD>        synthetic Table IV profile (default WG)
  --scale <N>                           1/N of the published size (default 512)
  --graph <FILE>                        edge-list file instead of a workload
  --seed <S>                            RNG seed (default 42)
  --root <V>                            root vertex for BFS/SSSP/SSWP/PPR
                                        (default: highest out-degree)
  --threads <T>                         ligra backend threads (at least 1)
  --values <FILE>                       write final vertex values as CSV
  --help                                this message
";

const BACKENDS: [&str; 4] = ["accel", "base", "ligra", "graphicionado"];

struct Args {
    app: App,
    /// `--app ppr`: PageRank-Delta with the teleport mass injected at the
    /// root only. Not a row of the application table — only the initial
    /// events differ from `pr`.
    personalized: bool,
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
        app: App::PageRank,
        personalized: false,
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
            "--app" => {
                let name = val()?;
                args.personalized = name.eq_ignore_ascii_case("ppr");
                args.app = match App::parse(&name) {
                    Some(app) => app,
                    None if args.personalized => App::PageRank,
                    None => {
                        return Err(format!(
                            "unknown app {name} (expected {},ppr)",
                            App::names(&App::ALL)
                        ))
                    }
                };
            }
            "--backend" => {
                args.backend = val()?.to_ascii_lowercase();
                if !BACKENDS.contains(&args.backend.as_str()) {
                    let expected = BACKENDS.join(",");
                    return Err(format!(
                        "unknown backend {} (expected {expected})",
                        args.backend
                    ));
                }
            }
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
                // edge_map would run 0 threads as 1; refuse it as --scale 0
                // is refused rather than report a count that was not used.
                let threads: usize = val()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(threads);
            }
            "--values" => args.values_out = Some(val()?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let ligra_has = !args.personalized && apps::APPS.contains(&args.app);
    if args.backend == "ligra" && !ligra_has {
        return Err(format!(
            "app {} not available on the ligra backend (expected {})",
            if args.personalized {
                "ppr"
            } else {
                args.app.name()
            },
            App::names(&apps::APPS)
        ));
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
type Run = (Vec<f64>, f64, String);

fn run(args: &Args) -> Result<Run, String> {
    let graph = load_graph(args, args.app.weighted())?;
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
    let (graph, params) = if args.app == App::Adsorption {
        let normalized = normalize_inbound(&graph);
        let params = AdsorptionParams::random(normalized.num_vertices(), args.seed ^ 0xAD50);
        (normalized, Some(params))
    } else {
        (graph, None)
    };
    let inputs = AppInputs {
        root,
        threshold: 1e-7,
        adsorption: params.as_ref(),
    };

    if args.backend == "ligra" {
        let mut cfg = LigraConfig::default();
        if let Some(t) = args.threads {
            cfg.threads = t;
        }
        let out = apps::run(args.app, &inputs, &graph, &cfg)
            .expect("parse_args admits only the apps ligra has");
        let secs = out.elapsed.as_secs_f64();
        let summary = format!(
            "{:.3} ms measured on {} threads | {} iterations",
            secs * 1e3,
            cfg.threads,
            out.iterations
        );
        return Ok((out.values, secs, summary));
    }
    if args.personalized {
        let algo = PageRankDelta::personalized(App::DAMPING, 1e-9, n, &[root]);
        return simulate(&args.backend, &graph, &algo);
    }
    with_algorithm!(args.app, &inputs, |algo| simulate(
        &args.backend,
        &graph,
        algo
    ))
}

/// Runs `algo` on one of the timing models: `accel`, `base` or
/// `graphicionado`.
fn simulate<A: DeltaAlgorithm>(backend: &str, graph: &CsrGraph, algo: &A) -> Result<Run, String> {
    if backend == "graphicionado" {
        let out = graphicionado::run(graph, algo, &GraphicionadoConfig::default());
        let summary = format!(
            "{} cycles ({:.3} ms simulated) | {} BSP iterations | {} edges processed",
            out.cycles,
            out.seconds * 1e3,
            out.iterations,
            out.edges_processed
        );
        return Ok((out.values, out.seconds, summary));
    }
    let config = if backend == "accel" {
        AcceleratorConfig::optimized()
    } else {
        AcceleratorConfig::baseline()
    };
    let outcome = GraphPulse::new(config)
        .run(graph, algo)
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
