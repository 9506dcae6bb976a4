//! `container` — out-of-core CSR container bench: builds on-disk `GPC1`
//! containers with the streaming external-memory builder (the full graph
//! is never materialized in RAM), memory-maps them, and drives the golden
//! engine and turbo over the mapping.
//!
//! Per scale (`--log2`, default `20,22`) the bench:
//!
//! 1. streams a seeded R-MAT edge list straight into [`build_streaming`]
//!    — resident memory during the build is one spill bucket, not the
//!    graph; the container numbers its vertices hub-first,
//! 2. opens the container with [`MappedCsr::open_verified`] (full segment
//!    checksum verification) and picks the highest-out-degree root,
//! 3. for each of PRD, SSSP, BFS, CC, and SSWP, runs the golden engine
//!    over a [`MeteredView`] of the mapping (reporting events/sec and the
//!    bytes-moved-per-edge traffic split) and turbo over the raw mapping
//!    (reporting its events/sec and its max |diff| vs golden, which must
//!    sit within the algorithm's comparison tolerance — one bound, which
//!    does not loosen as the graph's hubs grow),
//! 4. emits a `BENCH_outofcore.json` document (`gp-bench/outofcore/v2`,
//!    schema-checked by `bench_check`).
//!
//! Adsorption is skipped: it needs inbound-normalized weights, a whole
//! graph rewrite the streaming builder deliberately does not perform.
//!
//! `--budget-mb` turns the run into the out-of-core demonstration: the
//! bench computes the *analytic* fully-resident footprint of each graph
//! (both CSR directions: `2*4*(n+1)` row-pointer plus `2*4*m` neighbor
//! and, when weighted, `2*4*m` weight bytes) and a conservative bound on
//! the mapped run's heap working state (48 B/vertex for values, pending
//! deltas, and scheduler entries). Mapped file pages are excluded by
//! design: they are clean, evictable page cache, not committed memory.
//!
//! The record is written, then held to its schema, [`OUTOFCORE`], which
//! is the bench's verdict: every mapped working state fits under the
//! budget, at least one scale's resident footprint exceeds it (a graph the
//! fully-resident path could not have loaded under the same budget), and
//! turbo is within tolerance of golden everywhere. Exit status: 0 when the
//! record passes, 1 with the schema's message when it does not (or when a
//! build, a `--check-resident` comparison or the write fails), 2 on a bad
//! invocation.

use std::path::PathBuf;
use std::time::Instant;

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{accept, max_abs_diff, with_algorithm, App, AppInputs, DeltaAlgorithm};
use gp_bench::cli::{finish, Flags};
use gp_bench::json::{Json, OUTOFCORE};
use gp_bench::write_output;
use gp_graph::container::{build_streaming, StreamBuildOptions};
use gp_graph::generators::{rmat, rmat_edges, RmatConfig, WeightMode};
use gp_graph::stats::max_out_degree_vertex;
use gp_graph::{GraphView, MappedCsr, MeteredView};
use gp_turbo::{run_turbo, TurboConfig};
use gp_verify::oracle::{check_mapped, check_relabeled};

/// PageRank-Delta convergence threshold — the same `1e-3` the end-to-end
/// trajectory uses at scale. PRD's comparison tolerance scales with its
/// threshold (sub-threshold residue accumulates along paths), so the
/// tight small-fixture `gp_bench::EPS` would reject legitimate turbo-vs-golden
/// residue drift on multi-million-edge graphs.
const PRD_THRESHOLD: f64 = 1e-3;

const USAGE: &str = "\
Usage: container [--seed N] [--log2 L1,L2,...] [--edge-factor N]
                 [--bucket-vertices N] [--budget-mb N] [--check-resident]
                 [--unweighted] [--dir PATH] [--out PATH]

Builds on-disk GPC1 containers at each 2^L-vertex scale with the streaming
builder (no resident graph), memory-maps them, and benchmarks the golden
engine and turbo over the mapping. Writes a BENCH_outofcore.json record.

  --seed N            R-MAT seed (default 42)
  --log2 LIST         comma-separated log2 vertex counts (default 20,22)
  --edge-factor N     directed edges per vertex before dedup (default 8)
  --bucket-vertices N vertices per streaming spill bucket (default 262144)
  --budget-mb N       resident-memory budget; the mapped working state must
                      fit under it (0 = no budget, the default)
  --check-resident    also build each graph in RAM from the same stream,
                      require the container to be it relabeled by the
                      container's ranks, and require golden and turbo over
                      the mapping to be bit-identical to the fully-resident
                      runs (CI smoke; defeats the budget)
  --unweighted        drop the weight segments (default: weighted)
  --dir PATH          scratch directory for containers (default: temp dir)
  --out PATH          output JSON path (default BENCH_outofcore.json)";

struct Config {
    seed: u64,
    log2: Vec<u32>,
    edge_factor: usize,
    bucket_vertices: usize,
    budget_mb: u64,
    check_resident: bool,
    weighted: bool,
    dir: Option<PathBuf>,
    out: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seed: 42,
            log2: vec![20, 22],
            edge_factor: 8,
            bucket_vertices: 1 << 18,
            budget_mb: 0,
            check_resident: false,
            weighted: true,
            dir: None,
            out: PathBuf::from("BENCH_outofcore.json"),
        }
    }
}

fn parse_log2_list(v: &str) -> Result<Vec<u32>, String> {
    let mut out = Vec::new();
    for part in v.split(',') {
        let lg: u32 = part
            .trim()
            .parse()
            .map_err(|_| format!("--log2 takes a comma-separated integer list, got {v:?}"))?;
        if !(1..=31).contains(&lg) {
            return Err(format!("--log2 entries must be in 1..=31, got {lg}"));
        }
        out.push(lg);
    }
    if out.is_empty() {
        return Err("--log2 list is empty".into());
    }
    Ok(out)
}

fn parse(mut flags: Flags) -> Result<Option<Config>, String> {
    let mut cfg = Config::default();
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = flags.parsed(&flag, "an integer")?,
            "--log2" => cfg.log2 = parse_log2_list(&flags.value(&flag)?)?,
            "--edge-factor" => cfg.edge_factor = flags.parsed(&flag, "an integer")?,
            "--bucket-vertices" => cfg.bucket_vertices = flags.parsed(&flag, "an integer")?,
            "--budget-mb" => cfg.budget_mb = flags.parsed(&flag, "an integer")?,
            "--check-resident" => cfg.check_resident = true,
            "--unweighted" => cfg.weighted = false,
            "--dir" => cfg.dir = Some(PathBuf::from(flags.value(&flag)?)),
            "--out" => cfg.out = PathBuf::from(flags.value(&flag)?),
            other => return Err(Flags::unknown(other)),
        }
    }
    if flags.help_requested() {
        return Ok(None);
    }
    if cfg.edge_factor == 0 {
        return Err("--edge-factor must be positive".into());
    }
    if cfg.bucket_vertices == 0 {
        return Err("--bucket-vertices must be positive".into());
    }
    if cfg.budget_mb.checked_mul(1 << 20).is_none() {
        return Err(format!(
            "--budget-mb {} MiB overflows a 64-bit byte count",
            cfg.budget_mb
        ));
    }
    Ok(Some(cfg))
}

/// The `algo` string of an application's row in the record.
fn record_name(app: App) -> &'static str {
    match app {
        App::PageRank => "pagerank-delta",
        other => other.name(),
    }
}

/// One per-algorithm measurement row.
struct AlgoRow {
    label: &'static str,
    json: Json,
    bytes_per_edge: f64,
    golden_eps: f64,
    turbo_eps: f64,
    turbo_diff: f64,
    turbo_ok: bool,
}

/// Golden over the metered mapping, turbo over the raw mapping; turbo is
/// judged against golden by [`accept`], its max |diff| recorded beside.
fn measure<A: DeltaAlgorithm>(label: &'static str, algo: &A, mapped: &MappedCsr) -> AlgoRow {
    let metered = MeteredView::new(mapped);
    let t = Instant::now();
    let golden = run_sequential(algo, &metered);
    let wall = t.elapsed().as_secs_f64();
    let traffic = metered.snapshot();

    let t = Instant::now();
    let turbo = run_turbo(algo, mapped, &TurboConfig::default());
    let turbo_wall = t.elapsed().as_secs_f64();
    let diff = max_abs_diff(&turbo.values, &golden.values);
    let turbo_ok = accept(algo, &turbo.values, &golden.values).is_ok();

    let eps = golden.events_processed as f64 / wall.max(1e-9);
    let turbo_eps = turbo.events_processed as f64 / turbo_wall.max(1e-9);
    let json = Json::obj([
        ("algo", Json::Str(label.into())),
        ("wall_secs", Json::Num(wall)),
        (
            "events_processed",
            Json::Num(golden.events_processed as f64),
        ),
        ("events_per_sec", Json::Num(eps)),
        ("edges_read", Json::Num(traffic.edges_read as f64)),
        ("rowptr_bytes", Json::Num(traffic.rowptr_bytes as f64)),
        ("edge_bytes", Json::Num(traffic.edge_bytes as f64)),
        ("bytes_moved", Json::Num(traffic.total_bytes() as f64)),
        ("bytes_per_edge", Json::Num(traffic.bytes_per_edge())),
        ("turbo_wall_secs", Json::Num(turbo_wall)),
        ("turbo_events_per_sec", Json::Num(turbo_eps)),
        ("turbo_max_abs_diff", Json::Num(diff)),
        ("turbo_ok", Json::Bool(turbo_ok)),
    ]);
    AlgoRow {
        label,
        json,
        bytes_per_edge: traffic.bytes_per_edge(),
        golden_eps: eps,
        turbo_eps,
        turbo_diff: diff,
        turbo_ok,
    }
}

fn run_scale(cfg: &Config, dir: &std::path::Path, lg: u32) -> Result<Json, String> {
    let n = 1usize << lg;
    let weights = if cfg.weighted {
        WeightMode::Uniform(1.0, 10.0)
    } else {
        WeightMode::Unweighted
    };
    let rcfg = RmatConfig::graph500(n, n.saturating_mul(cfg.edge_factor)).with_weights(weights);
    let path = dir.join(format!("rmat-2p{lg}.gpc"));

    println!(
        "[2^{lg}] streaming {n}-vertex R-MAT into {}",
        path.display()
    );
    let t = Instant::now();
    let opts = StreamBuildOptions {
        weighted: cfg.weighted,
        bucket_vertices: cfg.bucket_vertices,
    };
    let summary = build_streaming(&path, n, &opts, |sink| {
        rmat_edges(&rcfg, cfg.seed, sink);
    })
    .map_err(|e| format!("2^{lg}: streaming build failed: {e}"))?;
    let build_secs = t.elapsed().as_secs_f64();

    let mapped = MappedCsr::open_verified(&path)
        .map_err(|e| format!("2^{lg}: container failed verified open: {e:?}"))?;
    let m = mapped.num_edges();

    // Analytic footprints: what a fully-resident CsrGraph would commit
    // (both directions) vs a conservative bound on the mapped run's heap
    // working state. Mapped file pages are evictable cache, not commit.
    let resident_graph_bytes = (8 * (n as u64 + 1)) + 8 * m as u64 * (1 + u64::from(cfg.weighted));
    let mapped_state_bytes = 48 * n as u64;
    println!(
        "[2^{lg}] {m} edges, container {} B in {build_secs:.1}s \
         (kernel-mapped: {}); resident {} MiB vs mapped state {} MiB",
        summary.file_bytes,
        mapped.is_kernel_mapped(),
        resident_graph_bytes >> 20,
        mapped_state_bytes >> 20,
    );
    if cfg.budget_mb > 0 {
        let fit = |bytes| match bytes > cfg.budget_mb << 20 {
            true => "does NOT fit",
            false => "fits",
        };
        println!(
            "[2^{lg}] budget {} MiB: mapped state {}; fully-resident graph {}",
            cfg.budget_mb,
            fit(mapped_state_bytes),
            fit(resident_graph_bytes),
        );
    }

    // Every row of the table but Adsorption (see the module docs).
    let table = App::ALL.into_iter().filter(|&app| app != App::Adsorption);
    let inputs = AppInputs {
        root: max_out_degree_vertex(&mapped),
        threshold: PRD_THRESHOLD,
        adsorption: None,
    };
    if cfg.check_resident {
        // An independent build: the same seeded stream through
        // GraphBuilder, renamed by the container's ranks.
        let resident =
            check_relabeled(&rmat(&rcfg, cfg.seed), &mapped).map_err(|e| format!("2^{lg}: {e}"))?;
        for app in table.clone() {
            with_algorithm!(app, &inputs, |algo| check_mapped(algo, &resident, &mapped))
                .map_err(|e| format!("2^{lg}: {}: {e}", record_name(app)))?;
        }
        println!("[2^{lg}] mapped runs are bit-identical to the fully-resident path");
    }
    let mut rows: Vec<AlgoRow> = table
        .map(|app| {
            with_algorithm!(app, &inputs, |algo| measure(
                record_name(app),
                algo,
                &mapped
            ))
        })
        .collect();
    for row in &rows {
        println!(
            "[2^{lg}] {:>14}: {:>9.0} ev/s golden, {:>9.0} ev/s turbo, \
             {:.2} B/edge, turbo |diff| {:.2e} ok: {}",
            row.label,
            row.golden_eps,
            row.turbo_eps,
            row.bytes_per_edge,
            row.turbo_diff,
            row.turbo_ok,
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(Json::obj([
        ("log2_vertices", Json::Num(f64::from(lg))),
        ("vertices", Json::Num(n as f64)),
        ("edges", Json::Num(m as f64)),
        ("weighted", Json::Bool(cfg.weighted)),
        ("container_bytes", Json::Num(summary.file_bytes as f64)),
        ("build_secs", Json::Num(build_secs)),
        ("kernel_mapped", Json::Bool(mapped.is_kernel_mapped())),
        (
            "resident_graph_bytes",
            Json::Num(resident_graph_bytes as f64),
        ),
        ("mapped_state_bytes", Json::Num(mapped_state_bytes as f64)),
        ("algos", Json::Arr(rows.drain(..).map(|r| r.json).collect())),
    ]))
}

fn main() {
    let cfg = finish(parse(Flags::from_env()), USAGE);
    let scratch;
    let dir = match &cfg.dir {
        Some(d) => d.clone(),
        None => {
            scratch = std::env::temp_dir().join(format!("gp-container-{}", std::process::id()));
            scratch.clone()
        }
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create scratch dir {}: {e}", dir.display());
        std::process::exit(2);
    }

    let mut entries = Vec::new();
    for &lg in &cfg.log2 {
        match run_scale(&cfg, &dir, lg) {
            Ok(entry) => entries.push(entry),
            Err(e) => {
                eprintln!("error: {e}");
                if cfg.dir.is_none() {
                    std::fs::remove_dir_all(&dir).ok();
                }
                std::process::exit(1);
            }
        }
    }
    if cfg.dir.is_none() {
        std::fs::remove_dir_all(&dir).ok();
    }

    let doc = Json::obj([
        ("schema", Json::Str(OUTOFCORE.tag.into())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("edge_factor", Json::Num(cfg.edge_factor as f64)),
        ("budget_mb", Json::Num(cfg.budget_mb as f64)),
        ("entries", Json::Arr(entries)),
    ]);
    let verdict = write_output(&cfg.out, &gp_bench::json::render(&doc)).and_then(|()| {
        println!("wrote {}", cfg.out.display());
        let out = cfg.out.display();
        OUTOFCORE
            .validate(&doc)
            .map_err(|e| format!("`{out}` failed schema check: {e}"))
    });
    if let Err(e) = verdict {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
