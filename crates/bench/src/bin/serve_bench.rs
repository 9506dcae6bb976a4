//! Load generator for the `gp-serve` query service.
//!
//! ```text
//! cargo run --release -p gp-bench --bin serve_bench -- [flags]
//! ```
//!
//! Drives seed-deterministic mixed traffic — ~30% PageRank reads, ~10%
//! component reads, ~60% path queries (SSSP/BFS/SSWP) from a skewed
//! hot-source pool — from several client threads against a live server,
//! while an updater thread races edge-update batches through the writer so
//! epochs advance mid-run. Latency is measured per query at the client and
//! reported as p50/p99/p999 per class in `BENCH_serve.json`
//! (`gp-bench/serve/v3`, checked by `bench_check`).
//!
//! `--executors` takes a comma-separated list of executor-pool sizes and
//! runs the identical workload once per size (a fresh server each time,
//! same seeds, same traffic), recording one sweep entry per run —
//! throughput scaling across pool sizes lands in a single document.
//!
//! A deterministic slice of the responses is cross-checked after each run
//! against golden sequential recomputes on the *exact epoch each response
//! named* (the store retains every epoch the run publishes): bit-exact for
//! the monotone classes (SSSP/BFS/SSWP/CC), within the algorithm's
//! comparison tolerance for PageRank. `--verify-all` lifts the golden-run
//! budget and checks every sampled response — CI's smoke mode.
//!
//! The record is then held to its schema, [`SERVE`]: exit status 0 when it
//! passes, 1 with the schema's message when it does not (some sampled
//! response diverged, or no sample was checked) or the output cannot be
//! written, 2 on a bad invocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gp_algorithms::{accept, with_algorithm, App, AppInputs};
use gp_bench::json::{Json, SERVE};
use gp_bench::{cli, write_output};
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, OverlayGraph, VertexId};
use gp_serve::{Query, QueryClass, QueryResponse, ServeConfig, Server};
use gp_stream::UpdateStream;

const USAGE: &str = "\
Usage: serve_bench [flags]
  --seed S         traffic + graph seed (default 42)
  --vertices N     R-MAT graph size (default 65536)
  --queries Q      total queries across all clients (default 120000)
  --clients C      client threads (default 4)
  --tenants T      registered tenants, clients round-robin (default 2)
  --batches B      edge-update batches raced against the queries (default 32)
  --batch-size U   edge updates per batch (default 96)
  --hot-sources H  size of the skewed path-source pool (default 16)
  --executors E    comma-separated executor-pool sizes; the identical
                   workload runs once per size and each run is one sweep
                   entry in the output (default 1)
  --sample-every K sample every K-th query per client for the golden
                   cross-check (default 512)
  --verify-all     cross-check every sampled response (no golden-run
                   budget); slower, used by the CI smoke
  --out PATH       JSON output path (default BENCH_serve.json)
  --help           print this reference and exit

Exit status: 0 when the record passes its schema, 1 when it fails it
(a sampled response diverged from the golden recompute on its epoch, or no
sample was checked) or cannot be written, 2 on a bad invocation.";

#[derive(Clone)]
struct Args {
    seed: u64,
    vertices: usize,
    queries: usize,
    clients: usize,
    tenants: usize,
    batches: usize,
    batch_size: usize,
    hot_sources: usize,
    executors: Vec<usize>,
    sample_every: usize,
    verify_all: bool,
    out: std::path::PathBuf,
}

fn parse_executor_list(raw: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in raw.split(',') {
        let n: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("--executors expects positive integers, got {part:?}"))?;
        if n == 0 {
            return Err("--executors counts must be positive".into());
        }
        out.push(n);
    }
    Ok(out)
}

fn parse(args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        seed: 42,
        vertices: 1 << 16,
        queries: 120_000,
        clients: 4,
        tenants: 2,
        batches: 32,
        batch_size: 96,
        hot_sources: 16,
        executors: vec![1],
        sample_every: 512,
        verify_all: false,
        out: "BENCH_serve.json".into(),
    };
    let mut args = cli::Flags::new(args);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => parsed.seed = args.parsed(&flag, "an integer")?,
            "--vertices" => parsed.vertices = args.parsed(&flag, "an integer")?,
            "--queries" => parsed.queries = args.parsed(&flag, "an integer")?,
            "--clients" => parsed.clients = args.parsed(&flag, "an integer")?,
            "--tenants" => parsed.tenants = args.parsed(&flag, "an integer")?,
            "--batches" => parsed.batches = args.parsed(&flag, "an integer")?,
            "--batch-size" => parsed.batch_size = args.parsed(&flag, "an integer")?,
            "--hot-sources" => parsed.hot_sources = args.parsed(&flag, "an integer")?,
            "--executors" => parsed.executors = parse_executor_list(&args.value(&flag)?)?,
            "--sample-every" => parsed.sample_every = args.parsed(&flag, "an integer")?,
            "--verify-all" => parsed.verify_all = true,
            "--out" => parsed.out = args.value(&flag)?.into(),
            other => return Err(cli::Flags::unknown(other)),
        }
    }
    if args.help_requested() {
        return Ok(None);
    }
    if parsed.vertices < 64 {
        return Err("--vertices must be at least 64".into());
    }
    if parsed.clients == 0 || parsed.tenants == 0 || parsed.queries == 0 {
        return Err("--clients, --tenants, and --queries must be positive".into());
    }
    if parsed.executors.is_empty() {
        return Err("--executors needs at least one pool size".into());
    }
    parsed.hot_sources = parsed.hot_sources.clamp(1, parsed.vertices);
    parsed.sample_every = parsed.sample_every.max(1);
    Ok(Some(parsed))
}

/// One client thread's output: per-class latencies (µs) and the sampled
/// (query, response) pairs for the golden cross-check.
struct ClientRun {
    latencies_us: [Vec<f64>; 5],
    samples: Vec<(Query, QueryResponse)>,
}

fn class_index(class: QueryClass) -> usize {
    QueryClass::ALL
        .iter()
        .position(|&c| c == class)
        .expect("class")
}

fn run_client(
    client: gp_serve::ServeClient,
    tenant: usize,
    queries: usize,
    hot: Arc<Vec<u32>>,
    seed: u64,
    sample_every: usize,
    progress: Arc<AtomicU64>,
) -> ClientRun {
    let n = client.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ClientRun {
        latencies_us: std::array::from_fn(|_| Vec::new()),
        samples: Vec::new(),
    };
    for i in 0..queries {
        let src = VertexId::new(hot[rng.gen_range(0..hot.len())]);
        let dst = VertexId::new(rng.gen_range(0..n));
        let roll = rng.gen_range(0.0..1.0f64);
        let query = if roll < 0.30 {
            Query::PageRank { v: dst }
        } else if roll < 0.40 {
            Query::Components { v: dst }
        } else if roll < 0.60 {
            Query::Sssp { src, dst }
        } else if roll < 0.80 {
            Query::Bfs { src, dst }
        } else {
            Query::Sswp { src, dst }
        };
        let t0 = Instant::now();
        let response = loop {
            match client.query(tenant, query) {
                Ok(r) => break r,
                // Backpressure sheds the query; a real client retries
                // later. Keep the bench lossless so served == offered.
                Err(_) => std::thread::yield_now(),
            }
        };
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        out.latencies_us[class_index(query.class())].push(micros);
        progress.fetch_add(1, Ordering::Relaxed);
        if i % sample_every == 0 {
            out.samples.push((query, response));
        }
    }
    out
}

/// Golden recomputes, cached per epoch (whole-graph classes) or per
/// (class, source, epoch) (path classes), with an optional budget on how
/// many distinct golden runs the verification phase may spend.
struct GoldenCache<'a> {
    store: &'a gp_serve::SnapshotStore,
    /// The service's PageRank threshold; `root` is set per source.
    inputs: AppInputs<'static>,
    values: std::collections::HashMap<(QueryClass, u32, u64), Arc<Vec<f64>>>,
    runs_left: usize,
}

impl GoldenCache<'_> {
    /// The golden value vector serving `(class, src)` at `epoch`, or
    /// `None` when the budget is spent (never for an unretained epoch —
    /// the bench retains every epoch it publishes).
    fn values_for(&mut self, class: QueryClass, src: u32, number: u64) -> Option<Arc<Vec<f64>>> {
        let key = (class, src, number);
        if let Some(v) = self.values.get(&key) {
            return Some(Arc::clone(v));
        }
        if self.runs_left == 0 {
            return None;
        }
        self.runs_left -= 1;
        let epoch = self
            .store
            .epoch(number)
            .expect("every published epoch is retained for verification");
        let inputs = AppInputs {
            root: VertexId::new(src),
            ..self.inputs
        };
        let values = Arc::new(class.app().golden_values(&inputs, &epoch.graph));
        self.values.insert(key, Arc::clone(&values));
        Some(values)
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the full workload against a fresh server with `executors`
/// executor threads and returns the sweep entry.
#[allow(clippy::too_many_lines)]
fn run_sweep_entry(args: &Args, graph: &CsrGraph, executors: usize) -> Json {
    println!(
        "serve_bench: {} executor(s), {} queries on {} client(s), {} update batch(es)",
        executors, args.queries, args.clients, args.batches
    );
    let shadow_base = graph.clone();

    let config = ServeConfig {
        tenants: (0..args.tenants).map(|i| format!("t{i}")).collect(),
        executors,
        // Retain every epoch this run can publish so the cross-check can
        // recompute on exactly the epoch each response names.
        retain_epochs: args.batches + 2,
        // The harness-wide PageRank threshold: golden recomputes at 1e-9
        // would dominate the verification phase without changing the story.
        pagerank_threshold: gp_bench::EPS,
        ..ServeConfig::default()
    };
    let inputs = AppInputs {
        root: VertexId::new(0),
        threshold: config.pagerank_threshold,
        adsorption: None,
    };
    let handle = Server::start(graph.clone(), config);

    // Skewed hot-source pool shared by every client: repeated sources hit
    // the lane's path columns; each distinct one runs cold once.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x407);
    let hot: Arc<Vec<u32>> = Arc::new(
        (0..args.hot_sources)
            .map(|_| rng.gen_range(0..args.vertices as u32))
            .collect(),
    );

    // Updater thread: paced against query progress so the batches spread
    // across the whole run instead of finishing in the first millisecond.
    let progress = Arc::new(AtomicU64::new(0));
    let updater_thread = {
        let updater = handle.updater();
        let progress = Arc::clone(&progress);
        let total = args.queries as u64;
        let batches = args.batches;
        let batch_size = args.batch_size;
        let seed = args.seed ^ 0xDE1A;
        let vertices = args.vertices;
        std::thread::spawn(move || {
            let mut shadow = OverlayGraph::new(shadow_base);
            let mut stream = UpdateStream::new(vertices, 0.3, WeightMode::Uniform(1.0, 10.0), seed);
            for b in 0..batches {
                let gate = total * b as u64 / batches.max(1) as u64;
                while progress.load(Ordering::Relaxed) < gate {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                let updates = stream.next_batch(&shadow, batch_size);
                shadow.apply(&updates);
                if !updater.submit(updates) {
                    return;
                }
            }
        })
    };

    let t0 = Instant::now();
    let mut clients = Vec::new();
    for c in 0..args.clients {
        let client = handle.client();
        let hot = Arc::clone(&hot);
        let progress = Arc::clone(&progress);
        let per = args.queries / args.clients + usize::from(c < args.queries % args.clients);
        let tenant = c % args.tenants;
        let seed = args.seed ^ (0xC11E47 + c as u64);
        let sample_every = args.sample_every;
        clients.push(std::thread::spawn(move || {
            run_client(client, tenant, per, hot, seed, sample_every, progress)
        }));
    }
    let runs: Vec<ClientRun> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    let wall_secs = t0.elapsed().as_secs_f64();
    updater_thread.join().expect("updater thread");

    // Golden cross-check on the pinned epochs. The budget bounds how many
    // full recomputes the verification phase spends (each one covers every
    // sample sharing its (class, source, epoch) key); --verify-all lifts it.
    // PageRank samples are judged by the acceptance rule, the monotone
    // classes bit for bit.
    let mut golden = GoldenCache {
        store: handle.store(),
        inputs,
        values: std::collections::HashMap::new(),
        runs_left: if args.verify_all { usize::MAX } else { 64 },
    };
    let mut verified = 0u64;
    let mut failures = 0u64;
    let mut budget_skipped = 0u64;
    for (query, response) in runs.iter().flat_map(|r| r.samples.iter()) {
        let (class, src, read) = query.parts();
        let Some(values) = golden.values_for(class, src, response.epoch) else {
            budget_skipped += 1;
            continue;
        };
        let expected = values[read as usize];
        let ok = if class == QueryClass::PageRank {
            with_algorithm!(App::PageRank, &inputs, |pr| {
                accept(pr, &[response.value], &[expected]).is_ok()
            })
        } else {
            expected.to_bits() == response.value.to_bits()
        };
        verified += 1;
        if !ok {
            failures += 1;
            eprintln!(
                "MISMATCH {query:?} at epoch {}: served {} vs golden {expected}",
                response.epoch, response.value
            );
        }
    }
    if budget_skipped > 0 {
        println!(
            "note: golden-run budget exhausted; {budget_skipped} sample(s) not checked \
             (use --verify-all to check everything)"
        );
    }

    let stats = handle.shutdown();
    let throughput = stats.served as f64 / wall_secs.max(1e-12);
    println!(
        "{} queries in {wall_secs:.2}s = {throughput:.0} q/s \
         ({} epochs published, {} warm starts, {} cold path runs, {} path warm starts, {} degraded)",
        stats.served,
        stats.epochs_published,
        stats.warm_starts,
        stats.fused_runs,
        stats.path_warm_starts,
        stats.degraded
    );
    println!("cross-checked {verified} sampled response(s), {failures} mismatch(es)");

    let mut classes = Vec::new();
    for (i, class) in QueryClass::ALL.iter().enumerate() {
        let mut lat: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.latencies_us[i].iter().copied())
            .collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
        let (p50, p99, p999) = (
            quantile(&lat, 0.50),
            quantile(&lat, 0.99),
            quantile(&lat, 0.999),
        );
        println!(
            "{:<9} served {:>8}  p50 {p50:>9.1}us  p99 {p99:>9.1}us  p999 {p999:>9.1}us",
            class.name(),
            stats.served_by_class[i]
        );
        classes.push(Json::obj([
            ("class", Json::Str(class.name().into())),
            ("served", Json::Num(stats.served_by_class[i] as f64)),
            ("mean_us", Json::Num(mean)),
            ("p50_us", Json::Num(p50)),
            ("p99_us", Json::Num(p99)),
            ("p999_us", Json::Num(p999)),
            ("max_us", Json::Num(lat.last().copied().unwrap_or(0.0))),
        ]));
    }

    Json::obj([
        ("executors", Json::Num(executors as f64)),
        ("queries_total", Json::Num(stats.served as f64)),
        ("wall_secs", Json::Num(wall_secs)),
        ("throughput_qps", Json::Num(throughput)),
        ("rejected", Json::Num(stats.rejected as f64)),
        ("degraded", Json::Num(stats.degraded as f64)),
        ("epochs_published", Json::Num(stats.epochs_published as f64)),
        ("update_batches", Json::Num(stats.update_batches as f64)),
        ("warm_starts", Json::Num(stats.warm_starts as f64)),
        ("cold_runs", Json::Num(stats.cold_runs as f64)),
        ("fused_runs", Json::Num(stats.fused_runs as f64)),
        ("path_cache_hits", Json::Num(stats.path_cache_hits as f64)),
        ("path_warm_starts", Json::Num(stats.path_warm_starts as f64)),
        ("verified_samples", Json::Num(verified as f64)),
        ("verify_failures", Json::Num(failures as f64)),
        ("classes", Json::Arr(classes)),
    ])
}

fn main() {
    let args = cli::finish(parse(std::env::args().skip(1)), USAGE);

    println!(
        "serve_bench: 2^{:.0} vertices, executor sweep {:?}",
        (args.vertices as f64).log2(),
        args.executors
    );
    let graph = rmat(
        &RmatConfig::graph500(args.vertices, 4 * args.vertices)
            .with_weights(WeightMode::Uniform(1.0, 10.0)),
        args.seed,
    );
    let base_edges = graph.num_edges();

    let sweep = args.executors.iter();
    let runs: Vec<Json> = sweep.map(|&e| run_sweep_entry(&args, &graph, e)).collect();

    let doc = Json::obj([
        ("schema", Json::Str(SERVE.tag.into())),
        ("seed", Json::Num(args.seed as f64)),
        ("vertices", Json::Num(args.vertices as f64)),
        ("edges", Json::Num(base_edges as f64)),
        ("tenants", Json::Num(args.tenants as f64)),
        ("clients", Json::Num(args.clients as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    let verdict = write_output(&args.out, &gp_bench::json::render(&doc)).and_then(|()| {
        println!("wrote {}", args.out.display());
        let out = args.out.display();
        SERVE
            .validate(&doc)
            .map_err(|e| format!("`{out}` failed schema check: {e}"))
    });
    if let Err(e) = verdict {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
