//! # gp-bench — the evaluation harness
//!
//! Regenerates every table and figure of the GraphPulse paper's evaluation
//! (§VI). The evaluation is one sweep: [`evaluate`] runs the software
//! framework, both GraphPulse configurations and the Graphicionado model
//! once per (app, workload) cell, and every figure, Table V and the
//! reproduction verdict are views of the resulting [`Grid`] ([`figures`]).
//! The `report` binary prints all of them; `--apps` / `--workloads` subset
//! the grid. The two wall-clock benches in `benches/` (plain
//! `harness = false` mains) are the shard-parallel worker sweep and the
//! threaded DRAM-model drive.
//!
//! `report`, `ablations` and `streaming` share one flag parser
//! ([`HarnessConfig::from_args`]); each passes the flags it reads and the
//! rows of the application table (`gp_algorithms::App`) it can run, and a
//! flag it would ignore is refused like an unknown one. `--help` prints the
//! binary's own subset of this reference ([`HarnessConfig::usage`]):
//!
//! ```text
//! --scale N        scale denominator vs. the published dataset sizes (default 256)
//! --seed S         RNG seed (default 42)
//! --workloads W    comma list of WG,FB,WK,LJ,TW (default all)
//! --apps A         comma list of the binary's apps (default all): pr,ads,sssp,bfs,cc
//!                  for `report`, pr,sssp,bfs,cc,sswp for `streaming`; any spelling
//!                  `App::parse` accepts (`PRD`, `pagerank`, ...)
//! --threads T      software-baseline threads (default: all cores)
//! --workers W      run the accelerator with the shard-parallel engine on W
//!                  worker threads (omit for the classic sequential engine;
//!                  results are bit-identical for every W)
//! --epoch-cycles E cycles between parallel-engine exchange barriers
//! --vertices N     update-stream graph size (default 2^16)
//! --batches B      update batches to stream (default 16)
//! --batch-size U   edge updates per batch (default 256)
//! --delete-frac F  deletion fraction of the update mix (default 0.3)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod json;

use std::sync::atomic::{AtomicU64, Ordering};

use gp_algorithms::DeltaAlgorithm;
use gp_algorithms::{normalize_inbound, with_algorithm, AdsorptionParams, App, AppInputs};
use gp_baselines::graphicionado::{self, GraphicionadoConfig};
use gp_baselines::ligra::{apps as ligra_apps, LigraConfig, LigraOutput};
use gp_graph::generators::WeightMode;
use gp_graph::stats::max_out_degree_vertex;
use gp_graph::workloads::Workload;
use gp_graph::{CsrGraph, VertexId};
use graphpulse_core::{AcceleratorConfig, ExecutionReport, GraphPulse, Outcome, QueueConfig};

/// Harness-wide knobs parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Scale denominator against the published dataset sizes.
    pub scale: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Workloads to run.
    pub workloads: Vec<Workload>,
    /// Apps to run.
    pub apps: Vec<App>,
    /// Software-baseline threads.
    pub threads: usize,
    /// Accelerator worker threads: `Some(w)` routes every accelerator run
    /// through the shard-parallel engine on `w` workers; `None` keeps the
    /// classic sequential engine.
    pub workers: Option<usize>,
    /// Override for the parallel engine's epoch length in cycles.
    pub epoch_cycles: Option<u64>,
    /// Update-stream graph size (`--vertices`, streaming binary).
    pub stream_vertices: usize,
    /// Number of update batches to stream (`--batches`, streaming binary).
    pub batches: usize,
    /// Edge updates per batch (`--batch-size`, streaming binary).
    pub batch_size: usize,
    /// Deletion fraction of the update mix (`--delete-frac`, streaming
    /// binary).
    pub delete_fraction: f64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 256,
            seed: 42,
            workloads: Workload::TABLE_IV.to_vec(),
            apps: App::PAPER.to_vec(),
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
            workers: None,
            epoch_cycles: None,
            stream_vertices: 1 << 16,
            batches: 16,
            batch_size: 256,
            delete_fraction: 0.3,
        }
    }
}

/// The harness flag reference. A continuation line belongs to the flag
/// above it; [`HarnessConfig::usage`] keeps a binary's own flags and fills
/// in its apps.
const REFERENCE: &str = "\
Flags:
  --scale N        scale denominator vs. published dataset sizes (default 256)
  --seed S         RNG seed (default 42)
  --workloads W    comma list of WG,FB,WK,LJ,TW (default all)
  --apps A         comma list of {apps} (default all)
  --threads T      software-baseline threads (default: all cores)
  --workers W      shard-parallel accelerator engine on W worker threads
                   (omit for the sequential engine; results bit-identical)
  --epoch-cycles E cycles between parallel-engine exchange barriers
  --vertices N     update-stream graph size (default 65536)
  --batches B      update batches to stream (default 16)
  --batch-size U   edge updates per batch (default 256)
  --delete-frac F  deletion fraction of the update mix (default 0.3)
  --help           print this reference and exit";

impl HarnessConfig {
    /// The flag reference of a binary that reads `flags` and runs `apps`:
    /// what it prints on `--help` and after a refused invocation.
    pub fn usage(flags: &[&str], apps: &[App]) -> String {
        let mut listed = true;
        let kept: Vec<&str> = REFERENCE
            .lines()
            .filter(|line| {
                let first = line.split_whitespace().next();
                if let Some(flag) = first.filter(|word| word.starts_with("--")) {
                    listed = flag == "--help" || flags.contains(&flag);
                }
                listed
            })
            .collect();
        kept.join("\n").replace("{apps}", &App::names(apps))
    }

    /// Parses `std::env::args()`-style arguments without touching the
    /// process, for a binary that reads `flags` (a flag it would ignore is
    /// refused like an unknown one) and runs `apps` — the default of
    /// `--apps` and the only rows it accepts, in any spelling
    /// [`App::parse`] does: `Ok(Some(cfg))` on success, `Ok(None)` when
    /// `--help` was requested, `Err` describing the first bad flag or value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags, flags missing
    /// their value, unparsable values, and values a run would panic on
    /// (`--scale 0`, `--epoch-cycles 0`, a `--delete-frac` outside [0, 1]).
    pub fn try_from_args(
        args: impl Iterator<Item = String>,
        flags: &[&str],
        apps: &[App],
    ) -> Result<Option<Self>, String> {
        fn at_least_one<T: PartialEq + Default>(flag: &str, v: T) -> Result<T, String> {
            if v == T::default() {
                return Err(format!("{flag} must be at least 1"));
            }
            Ok(v)
        }
        let mut cfg = HarnessConfig {
            apps: apps.to_vec(),
            ..HarnessConfig::default()
        };
        let mut args = cli::Flags::new(args);
        while let Some(flag) = args.next_flag() {
            if !flags.contains(&flag.as_str()) {
                return Err(cli::Flags::unknown(&flag));
            }
            match flag.as_str() {
                // A zero denominator has no graph to scale to.
                "--scale" => cfg.scale = at_least_one(&flag, args.parsed(&flag, "an integer")?)?,
                "--seed" => cfg.seed = args.parsed(&flag, "an integer")?,
                "--threads" => cfg.threads = args.parsed(&flag, "an integer")?,
                "--workers" => cfg.workers = Some(args.parsed(&flag, "an integer")?),
                // The parallel engine rejects an empty epoch.
                "--epoch-cycles" => {
                    let cycles = at_least_one(&flag, args.parsed(&flag, "an integer")?)?;
                    cfg.epoch_cycles = Some(cycles);
                }
                "--vertices" => cfg.stream_vertices = args.parsed(&flag, "an integer")?,
                "--batches" => cfg.batches = args.parsed(&flag, "an integer")?,
                "--batch-size" => cfg.batch_size = args.parsed(&flag, "an integer")?,
                "--delete-frac" => {
                    cfg.delete_fraction = args.parsed(&flag, "a number")?;
                    if !(0.0..=1.0).contains(&cfg.delete_fraction) {
                        return Err(format!(
                            "{flag} must be between 0 and 1, got {}",
                            cfg.delete_fraction
                        ));
                    }
                }
                "--workloads" => {
                    cfg.workloads = args
                        .value(&flag)?
                        .split(',')
                        .map(|w| {
                            Workload::parse(w)
                                .filter(|w| Workload::TABLE_IV.contains(w))
                                .ok_or_else(|| {
                                    format!(
                                        "unknown workload {} (expected WG,FB,WK,LJ,TW)",
                                        w.to_ascii_uppercase()
                                    )
                                })
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--apps" => {
                    cfg.apps = args
                        .value(&flag)?
                        .split(',')
                        .map(|a| {
                            App::parse(a).filter(|a| apps.contains(a)).ok_or_else(|| {
                                format!("unknown app {a} (expected {})", App::names(apps))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(cli::Flags::unknown(other)),
            }
        }
        if args.help_requested() {
            return Ok(None);
        }
        Ok(Some(cfg))
    }

    /// [`try_from_args`](Self::try_from_args) for a binary's `main`:
    /// `--help` prints [`usage`](Self::usage) and exits 0; a bad invocation
    /// prints the error plus the same reference to stderr and exits 2.
    pub fn from_args(args: impl Iterator<Item = String>, flags: &[&str], apps: &[App]) -> Self {
        cli::finish(
            Self::try_from_args(args, flags, apps),
            &Self::usage(flags, apps),
        )
    }
}

/// A workload instantiated for one app: the right graph variant plus
/// Adsorption parameters when needed.
pub struct Prepared {
    /// The graph the app runs on.
    pub graph: CsrGraph,
    /// Per-vertex Adsorption parameters (only for [`App::Adsorption`]).
    pub params: Option<AdsorptionParams>,
    /// Root vertex for BFS/SSSP (highest out-degree, paper-style).
    pub root: VertexId,
}

impl Prepared {
    /// What the application table needs to build this cell's algorithm.
    pub fn inputs(&self) -> AppInputs<'_> {
        AppInputs {
            root: self.root,
            threshold: EPS,
            adsorption: self.params.as_ref(),
        }
    }
}

/// Builds the graph (and parameters) `app` needs for `workload`.
///
/// PR/BFS/CC run on the unweighted synthetic graph; a weighted app gets
/// uniform weights in `[1, 10)`, except Adsorption, which gets random
/// weights normalized per inbound vertex (§VI-A). Twitter is scaled an
/// extra 4x beyond the requested denominator so the simulations stay
/// affordable on one host; it remains by far the largest graph and still
/// exercises the 3-slice execution path (see `gp_config`).
pub fn prepare(workload: Workload, app: App, scale: usize, seed: u64) -> Prepared {
    let scale = if workload == Workload::Twitter {
        scale * 4
    } else {
        scale
    };
    let (graph, params) = match app {
        App::Adsorption => {
            let raw = workload.synthesize_weighted(scale, WeightMode::Uniform(0.5, 2.0), seed);
            let graph = normalize_inbound(&raw);
            let params = Some(AdsorptionParams::random(
                graph.num_vertices(),
                seed ^ 0xAD50,
            ));
            (graph, params)
        }
        _ if app.weighted() => (
            workload.synthesize_weighted(scale, WeightMode::Uniform(1.0, 10.0), seed),
            None,
        ),
        _ => (workload.synthesize(scale, seed), None),
    };
    let root = max_out_degree_vertex(&graph);
    Prepared {
        graph,
        params,
        root,
    }
}

/// The propagation threshold PageRank-Delta and Adsorption run with
/// throughout the harness.
pub const EPS: f64 = 1e-7;

/// GraphPulse configuration for a workload: the paper's machine, with the
/// queue sized so Twitter needs ~3 slices (§IV-F / §VI-A) and smaller
/// workloads fit in one.
pub fn gp_config(workload: Workload, graph: &CsrGraph, optimized: bool) -> AcceleratorConfig {
    let mut cfg = if optimized {
        AcceleratorConfig::optimized()
    } else {
        AcceleratorConfig::baseline()
    };
    if workload == Workload::Twitter {
        // Force the paper's 3-slice execution at any scale.
        let per_slice = graph.num_vertices().div_ceil(3).max(1);
        let cols = cfg.queue.cols;
        let bins = cfg.queue.bins;
        let rows = per_slice.div_ceil(cols * bins).max(1);
        cfg.queue = QueueConfig { bins, rows, cols };
    }
    cfg
}

impl HarnessConfig {
    /// Runs one app on the accelerator, honoring `--workers`: without the
    /// flag on the sequential engine; with it on the shard-parallel engine,
    /// whose results are bit-identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors (configuration is validated upstream).
    pub fn run_accelerator(
        &self,
        app: App,
        prepared: &Prepared,
        base: &AcceleratorConfig,
    ) -> Outcome {
        ENGINE_RUNS[1].fetch_add(1, Ordering::Relaxed);
        let g = &prepared.graph;
        let mut cfg = base.clone();
        if let Some(workers) = self.workers {
            cfg.parallel.workers = workers.max(1);
            if let Some(e) = self.epoch_cycles {
                cfg.parallel.epoch_cycles = e;
            }
        }
        let accel = GraphPulse::new(cfg);
        match self.workers {
            None => with_algorithm!(app, &prepared.inputs(), |algo| accel.run(g, algo)),
            Some(_) => with_algorithm!(app, &prepared.inputs(), |algo| accel.run_parallel(g, algo))
                .map(Outcome::from),
        }
        .expect("accelerator run failed")
    }
}

/// Runs one app on the Ligra-style software framework (measured wall time).
///
/// # Panics
///
/// Panics on an app the framework has no port of (`ligra::apps::APPS`).
pub fn run_ligra(app: App, prepared: &Prepared, cfg: &LigraConfig) -> LigraOutput {
    ENGINE_RUNS[0].fetch_add(1, Ordering::Relaxed);
    ligra_apps::run(app, &prepared.inputs(), &prepared.graph, cfg)
        .unwrap_or_else(|| panic!("{} has no Ligra port", app.label()))
}

/// Runs one app on the Graphicionado model.
pub fn run_graphicionado(
    app: App,
    prepared: &Prepared,
    cfg: &GraphicionadoConfig,
) -> graphicionado::GraphicionadoOutput {
    ENGINE_RUNS[2].fetch_add(1, Ordering::Relaxed);
    let g = &prepared.graph;
    with_algorithm!(app, &prepared.inputs(), |algo| graphicionado::run(
        g, algo, cfg
    ))
}

static ENGINE_RUNS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Engine runs so far in this process — software framework, GraphPulse
/// (either configuration, either engine), Graphicionado — counted where the
/// engines are called, so a sweep that runs one twice shows.
pub fn engine_runs() -> [u64; 3] {
    std::array::from_fn(|i| ENGINE_RUNS[i].load(Ordering::Relaxed))
}

/// One (app, workload) cell of the evaluation: what each engine reported.
/// The value vectors are dropped once [`evaluate`] has cross-checked them.
pub struct Cell {
    /// The application.
    pub app: App,
    /// The workload.
    pub workload: Workload,
    /// Vertices of the graph the app ran on.
    pub vertices: usize,
    /// Edges of the graph the app ran on.
    pub edges: usize,
    /// Wall-clock seconds of the software framework: the one host-time
    /// number in the cell. Everything else is simulated and reproducible.
    pub sw_secs: f64,
    /// GraphPulse with the §V optimizations.
    pub opt: ExecutionReport,
    /// GraphPulse without them.
    pub base: ExecutionReport,
    /// The Graphicionado model (`values` emptied).
    pub hw: graphicionado::GraphicionadoOutput,
}

/// The paper's evaluation: one [`Cell`] per (app, workload), apps outermost.
pub struct Grid {
    /// The cells, in `--apps` then `--workloads` order.
    pub cells: Vec<Cell>,
}

/// Panics unless `values` agree with the software framework's result `sw`
/// within `tol`, the app's `comparison_tolerance` (the oracle's rule).
fn cross_check(app: App, wl: Workload, tol: f64, engine: &str, values: &[f64], sw: &[f64]) {
    let diff = gp_algorithms::max_abs_diff(values, sw);
    assert!(
        diff <= tol,
        "{engine} diverged from the software result on {}/{}: max |diff| {diff} > {tol}",
        app.label(),
        wl.abbrev()
    );
}

/// Runs the evaluation sweep: every engine once per (app, workload), each
/// simulated result checked against the software framework's.
///
/// # Panics
///
/// Panics if a simulation errors or an engine's values diverge from the
/// software result, naming the app, workload and engine.
pub fn evaluate(cfg: &HarnessConfig) -> Grid {
    let ligra = LigraConfig {
        threads: cfg.threads,
        ..LigraConfig::default()
    };
    let mut cells = Vec::new();
    for &app in &cfg.apps {
        for &workload in &cfg.workloads {
            eprintln!("[evaluate] {}/{} ...", app.label(), workload.abbrev());
            let prepared = prepare(workload, app, cfg.scale, cfg.seed);
            let graph = &prepared.graph;
            let sw = run_ligra(app, &prepared, &ligra);
            let opt = cfg.run_accelerator(app, &prepared, &gp_config(workload, graph, true));
            let base = cfg.run_accelerator(app, &prepared, &gp_config(workload, graph, false));
            let mut hw = run_graphicionado(app, &prepared, &GraphicionadoConfig::default());
            let tol = with_algorithm!(app, &prepared.inputs(), |algo| algo.comparison_tolerance());
            cross_check(app, workload, tol, "GP+opt", &opt.values, &sw.values);
            cross_check(app, workload, tol, "GP-base", &base.values, &sw.values);
            cross_check(app, workload, tol, "Graphicionado", &hw.values, &sw.values);
            hw.values = Vec::new();
            cells.push(Cell {
                app,
                workload,
                vertices: graph.num_vertices(),
                edges: graph.num_edges(),
                sw_secs: sw.elapsed.as_secs_f64().max(1e-9),
                opt: opt.report,
                base: base.report,
                hw,
            });
        }
    }
    Grid { cells }
}

/// Prints a Markdown-ish table: a header row then aligned data rows.
///
/// Also drops a machine-readable copy under `figures/<slug>.csv` (relative
/// to the working directory, the slug cut from the title) so the data
/// behind every table can be re-plotted; failures to write the CSV are
/// reported but non-fatal.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let slug: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect::<String>()
        .split('-')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("-");
    let slug: String = slug.chars().take(60).collect();
    print_table_as(&slug, title, header, rows);
}

/// [`print_table`] with the CSV's file stem given, not cut from the title.
pub fn print_table_as(stem: &str, title: &str, header: &[&str], rows: &[Vec<String>]) {
    if let Err(e) = write_csv(stem, header, rows) {
        eprintln!("note: could not write figures CSV: {e}");
    }
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let cols: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", cols.join(" | "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// Writes `contents` to `path`, creating missing parent directories.
///
/// This is the one chokepoint every bench binary's file output goes
/// through (`figures/*.csv`, `BENCH_*.json`), so a missing or unwritable
/// output directory fails with a readable, path-carrying message instead
/// of a panic or a bare `os error`.
///
/// # Errors
///
/// Returns a human-readable description naming the path and the failing
/// step (directory creation vs. file write).
pub fn write_output(path: &std::path::Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "could not create output directory `{}` for `{}`: {e}",
                    parent.display(),
                    path.display()
                )
            })?;
        }
    }
    std::fs::write(path, contents)
        .map_err(|e| format!("could not write output file `{}`: {e}", path.display()))
}

fn write_csv(stem: &str, header: &[&str], rows: &[Vec<String>]) -> Result<(), String> {
    let mut contents = String::new();
    contents.push_str(&header.join(","));
    contents.push('\n');
    for row in rows {
        contents.push_str(&row.join(","));
        contents.push('\n');
    }
    write_output(
        std::path::Path::new(&format!("figures/{stem}.csv")),
        &contents,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flags of a binary that reads everything these tests pass but
    /// the update-stream sizes.
    const FLAGS: [&str; 8] = [
        "--scale",
        "--seed",
        "--workloads",
        "--apps",
        "--threads",
        "--workers",
        "--epoch-cycles",
        "--delete-frac",
    ];

    fn try_parse(args: &[&str]) -> Result<Option<HarnessConfig>, String> {
        HarnessConfig::try_from_args(args.iter().map(|s| s.to_string()), &FLAGS, &App::PAPER)
    }

    #[test]
    fn args_parse_round_trip() {
        let cfg = try_parse(&[
            "--scale",
            "128",
            "--seed",
            "7",
            "--workloads",
            "WG,LJ",
            "--apps",
            "pr,bfs",
            "--threads",
            "2",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(cfg.scale, 128);
        assert_eq!(cfg.seed, 7);
        assert_eq!(
            cfg.workloads,
            vec![Workload::WebGoogle, Workload::LiveJournal]
        );
        assert_eq!(cfg.apps, vec![App::PageRank, App::Bfs]);
        assert_eq!(cfg.threads, 2);
    }

    #[test]
    fn a_flag_the_binary_does_not_read_is_unknown_to_it() {
        let err = try_parse(&["--seed", "7", "--batches", "2"]).unwrap_err();
        assert_eq!(err, "unknown flag --batches");
        let usage = HarnessConfig::usage(&FLAGS, &App::PAPER);
        assert!(usage.contains("--apps A         comma list of pr,ads,sssp,bfs,cc (default all)\n"));
        assert!(!usage.contains("--batches"), "{usage}");
        assert_eq!(usage.lines().count(), FLAGS.len() + 3, "{usage}");

        // `--apps` takes the binary's rows, in any spelling of the table.
        let cfg = try_parse(&["--apps", "PRD,Adsorption"]).unwrap().unwrap();
        assert_eq!(cfg.apps, vec![App::PageRank, App::Adsorption]);
        let err = try_parse(&["--apps", "sswp"]).unwrap_err();
        assert_eq!(err, "unknown app sswp (expected pr,ads,sssp,bfs,cc)");
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(try_parse(&["--help"]).unwrap().is_none());
        assert!(try_parse(&["--scale", "4", "-h"]).unwrap().is_none());
    }

    #[test]
    fn bad_invocations_are_reported_not_panicked() {
        let err = try_parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");

        let err = try_parse(&["--scale"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");

        let err = try_parse(&["--seed", "not-a-number"]).unwrap_err();
        assert!(err.contains("--seed takes an integer"), "{err}");

        let err = try_parse(&["--apps", "pr,quux"]).unwrap_err();
        assert!(err.contains("unknown app quux"), "{err}");

        let err = try_parse(&["--workloads", "WG,ZZ"]).unwrap_err();
        assert!(err.contains("unknown workload ZZ"), "{err}");

        // Values that parse but that a run would panic on.
        let err = try_parse(&["--scale", "0"]).unwrap_err();
        assert_eq!(err, "--scale must be at least 1");
        let err = try_parse(&["--epoch-cycles", "0"]).unwrap_err();
        assert_eq!(err, "--epoch-cycles must be at least 1");
        let err = try_parse(&["--delete-frac", "1.5"]).unwrap_err();
        assert_eq!(err, "--delete-frac must be between 0 and 1, got 1.5");
        assert!(try_parse(&["--delete-frac", "1"]).is_ok());
    }

    #[test]
    fn prepare_gives_weights_where_needed() {
        let p = prepare(Workload::WebGoogle, App::Sssp, 2048, 1);
        assert!(p.graph.is_weighted());
        let p = prepare(Workload::WebGoogle, App::PageRank, 2048, 1);
        assert!(!p.graph.is_weighted());
        let p = prepare(Workload::WebGoogle, App::Adsorption, 2048, 1);
        assert!(p.params.is_some());
        assert!(p.graph.out_degree(p.root) > 0);
    }

    #[test]
    fn twitter_config_forces_three_slices() {
        // Scale chosen so the queue's bins-by-cols granularity still splits
        // the (extra-4x-scaled) Twitter graph into about three slices.
        let p = prepare(Workload::Twitter, App::PageRank, 1024, 1);
        let cfg = gp_config(Workload::Twitter, &p.graph, true);
        let cap = cfg.queue.capacity();
        let slices = p.graph.num_vertices().div_ceil(cap);
        assert!((2..=4).contains(&slices), "got {slices} slices");
    }

    #[test]
    fn write_output_creates_parent_dirs_and_reports_readable_errors() {
        let base = std::env::temp_dir().join(format!("gp-bench-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);

        // Nested directories that do not exist yet are created.
        let nested = base.join("figures").join("deep").join("out.csv");
        write_output(&nested, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&nested).unwrap(), "a,b\n1,2\n");

        // A file squatting on the directory path yields a readable error
        // that names the path — not a panic.
        let squatter = base.join("blocked");
        std::fs::write(&squatter, "i am a file").unwrap();
        let err = write_output(&squatter.join("x.json"), "{}").unwrap_err();
        assert!(
            err.contains("could not create output directory") && err.contains("blocked"),
            "unreadable error: {err}"
        );

        // An unwritable target (the path IS a directory) also reports.
        let dir_target = base.join("figures");
        let err = write_output(&dir_target, "text").unwrap_err();
        assert!(
            err.contains("could not write output file") && err.contains("figures"),
            "unreadable error: {err}"
        );

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    #[should_panic(expected = "GP-base diverged from the software result on BFS/WG: max |diff| 1")]
    fn a_diverging_engine_is_named_with_its_cell() {
        let software = [0.0, 1.0];
        cross_check(
            App::Bfs,
            Workload::WebGoogle,
            0.0,
            "GP+opt",
            &software,
            &software,
        );
        cross_check(
            App::Bfs,
            Workload::WebGoogle,
            0.0,
            "GP-base",
            &[0.0, 2.0],
            &software,
        );
    }

    #[test]
    fn all_backends_agree_on_a_small_run() {
        let p = prepare(Workload::WebGoogle, App::Bfs, 8192, 3);
        let mut cfg = gp_config(Workload::WebGoogle, &p.graph, true);
        cfg.queue = QueueConfig {
            bins: 8,
            rows: 64,
            cols: 8,
        };
        let gp = HarnessConfig::default().run_accelerator(App::Bfs, &p, &cfg);
        let sw = run_ligra(App::Bfs, &p, &LigraConfig::sequential());
        let hw = run_graphicionado(App::Bfs, &p, &GraphicionadoConfig::default());
        assert!(gp_algorithms::max_abs_diff(&gp.values, &sw.values) < 1e-9);
        assert!(gp_algorithms::max_abs_diff(&gp.values, &hw.values) < 1e-9);
    }
}
