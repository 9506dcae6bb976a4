//! The repo benchmark. See `benchmark/README.md`; `run.sh` builds this
//! package and passes its arguments through.

mod harness;
mod host;
mod json;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use harness::{Outcome, Params};
use json::Json;

const USAGE: &str = "\
Usage: benchmark/run.sh [--seed S] [--trace 0|1]      every workload, each in its own process
       benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
                                                   one workload; the last line is its result
       benchmark/run.sh --check RESULTS.json        declared workloads and metrics, no failed operation
       benchmark/run.sh --compare A.json B.json     is B worse than A beyond a bound?
       benchmark/run.sh --aa N                      N runs labelled A interleaved with N labelled B
       benchmark/run.sh --smoke                     every graph at 2^10, two passes, traced and untraced
       benchmark/run.sh --manifest                  print BENCHMARK.json
       benchmark/run.sh --glossary                  print the per-layer metric table of the README
  --out-dir DIR   where containers, span dumps and results go (default benchmark/out)";

/// Exit code of a bad invocation.
const USAGE_ERROR: u8 = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    check: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    aa: Option<usize>,
    manifest: bool,
    glossary: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        check: None,
        compare: None,
        aa: None,
        manifest: false,
        glossary: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag} takes a number, got {v:?}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = num(&flag, value()?)?,
            "--seconds" => args.seconds = num(&flag, value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out-dir" => args.out_dir = value()?.into(),
            "--check" => args.check = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--aa" => args.aa = Some(num(&flag, value()?)?),
            "--smoke" => args.smoke = true,
            "--manifest" => args.manifest = true,
            "--glossary" => args.glossary = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be between 0 and 600, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result as the last line.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let p = Params {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace,
        setup_reps: if args.smoke { 1 } else { spec::SETUP_REPS },
        min_passes: if args.smoke { 2 } else { spec::MIN_PASSES },
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&p.out_dir) {
        eprintln!("error: cannot create {}: {e}", p.out_dir.display());
        return ExitCode::FAILURE;
    }
    use workloads::{accum::Accum, cycle::Cycle, mapped::Mapped, serve::Serve, stream::Stream};
    let Outcome { result, detail } = match name {
        "accum-r16" => harness::run::<Accum>(name, &p),
        "mapped-r16" => harness::run::<Mapped>(name, &p),
        "cycle-r12" => harness::run::<Cycle>(name, &p),
        "stream-r16" => harness::run::<Stream>(name, &p),
        "serve-mixed-r15" => harness::run::<Serve>(name, &p),
        other => {
            let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "error: unknown workload {other:?}; known: {}",
                known.join(", ")
            );
            return ExitCode::from(USAGE_ERROR);
        }
    };
    for (metric, v) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{name:<16} {metric:<34} {value:>16.6} {unit}");
    }
    println!("{} {}", report::DETAIL_PREFIX, detail.render());
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// Runs every workload, each in a child process of its own so that
/// `peak_rss_mb` is that workload's alone, and writes the results file.
fn run_all(args: &Args, label: &str) -> Result<(PathBuf, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut workloads = Vec::new();
    let mut ok = true;
    for w in &spec::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out-dir")
            .arg(&args.out_dir);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let entry = report::parse_child(&stdout)
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "{} ended with {} and no result:\n{}",
                    w.name,
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        for line in stdout.lines().filter(|l| l.starts_with(w.name)) {
            println!("{line}");
        }
        let failed = entry.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        let attempted = entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{:<16} ops_attempted {attempted} ops_failed {failed}",
            w.name
        );
        ok &= failed == 0.0;
        workloads.push((w.name, entry));
    }
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("run_seconds", Json::Num(args.seconds)),
        ("setup_reps", Json::Num(spec::SETUP_REPS as f64)),
        (
            "host_threads",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = args.out_dir.join(format!("results{label}.json"));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok((path, ok))
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(if e.is_empty() { 0 } else { USAGE_ERROR });
        }
    };
    let verdict = |r: Result<bool, String>| match r {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    };
    if args.manifest {
        print!("{}", spec::manifest().render_pretty());
        ExitCode::SUCCESS
    } else if args.glossary {
        println!("| metric | unit | better | exact | should move |\n|---|---|---|---|---|");
        for m in spec::per_layer() {
            let exact = if m.exact { "yes" } else { "" };
            println!(
                "| `{}` | {} | {} | {exact} | {} |",
                m.name, m.unit, m.better, m.moves
            );
        }
        ExitCode::SUCCESS
    } else if let Some(path) = &args.check {
        verdict(report::check(path))
    } else if let Some((a, b)) = &args.compare {
        verdict(report::compare(a, b))
    } else if let Some(n) = args.aa {
        verdict(report::aa(n, |label| {
            run_all(&args, label).map(|(path, _)| path)
        }))
    } else if let Some(name) = args.workload.clone() {
        run_one(&name, &args)
    } else if args.smoke {
        // The plumbing check: both kinds of run, every workload, checked.
        verdict((|| {
            let mut ok = true;
            for (trace, label) in [(false, "-smoke"), (true, "-smoke-trace")] {
                args.trace = trace;
                let (path, clean) = run_all(&args, label)?;
                ok &= clean && report::check(&path)?;
            }
            Ok(ok)
        })())
    } else {
        let label = if args.trace { "-trace" } else { "" };
        verdict(run_all(&args, label).map(|(_, ok)| ok))
    }
}
