//! Chaos-campaign bench: fault-injection sweep with recovery-cost metrics.
//!
//! ```text
//! cargo run --release -p gp-bench --bin chaos -- [--seed S] [--out PATH]
//! ```
//!
//! Runs the full [`gp_chaos::run_campaign`] sweep — every fault kind ×
//! all six algorithms, transient and persistent modes — and writes
//! `BENCH_chaos.json` (`gp-bench/chaos/v1`), printing the same record on
//! stdout: per-scenario detection latency, recovery kind, rollback count,
//! wasted events, and checkpoint traffic, plus per-algorithm fault-free
//! checkpointing overhead and an MTTR-style summary. Everything is derived
//! from the seed — no wall clock enters the output, so reruns are
//! byte-identical.
//!
//! The record is then held to its schema, [`CHAOS`]: exits 0 when it
//! passes (every scenario detected its fault and recovered to the
//! fault-free reference, every fault-free run bit-exact), 1 with the
//! schema's message when it does not, 2 on a bad invocation.

use gp_bench::json::{Json, CHAOS};
use gp_bench::write_output;
use gp_chaos::{run_campaign, CampaignReport};

const USAGE: &str = "\
Usage: chaos [flags]
  --seed S    campaign seed (default 42)
  --out PATH  JSON output path (default BENCH_chaos.json)
  --help      print this reference and exit

Exit status: 0 when the record passes its schema (every scenario detected
its fault and recovered bit-exactly), 1 when it fails it or cannot be
written, 2 on a bad invocation.";

struct Args {
    seed: u64,
    out: std::path::PathBuf,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        seed: 42,
        out: "BENCH_chaos.json".into(),
    };
    let mut args = gp_bench::cli::Flags::new(args);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => parsed.seed = args.parsed(&flag, "an integer")?,
            "--out" => parsed.out = args.value(&flag)?.into(),
            other => return Err(gp_bench::cli::Flags::unknown(other)),
        }
    }
    if args.help_requested() {
        return Ok(None);
    }
    Ok(Some(parsed))
}

fn to_json(report: &CampaignReport) -> Json {
    let scenarios: Vec<Json> = report
        .records
        .iter()
        .map(|r| {
            Json::obj([
                ("fault", Json::Str(r.fault.label().into())),
                ("algo", Json::Str(r.algo.into())),
                ("mode", Json::Str(r.mode.into())),
                ("backend", Json::Str(r.backend.into())),
                ("detected", Json::Num(f64::from(r.detected))),
                ("detector", Json::Str(r.detector.clone())),
                (
                    "detection_latency_epochs",
                    Json::Num(r.latency_epochs as f64),
                ),
                ("recovery", Json::Str(r.recovery.into())),
                ("rollbacks", Json::Num(f64::from(r.rollbacks))),
                ("wasted_events", Json::Num(r.wasted_events as f64)),
                ("checkpoint_bytes", Json::Num(r.checkpoint_bytes as f64)),
                ("max_abs_diff", Json::Num(r.max_diff)),
                ("result_ok", Json::Bool(r.result_ok)),
            ])
        })
        .collect();
    let overhead: Vec<Json> = report
        .overhead
        .iter()
        .map(|o| {
            Json::obj([
                ("algo", Json::Str(o.algo.into())),
                ("events_processed", Json::Num(o.events_processed as f64)),
                ("epochs", Json::Num(o.epochs as f64)),
                ("checkpoints", Json::Num(o.checkpoints as f64)),
                ("checkpoint_words", Json::Num(o.checkpoint_words as f64)),
                ("checkpoint_bytes", Json::Num(o.checkpoint_bytes as f64)),
                (
                    "checkpoint_bytes_per_event",
                    Json::Num(o.checkpoint_bytes as f64 / o.events_processed.max(1) as f64),
                ),
                ("bitexact", Json::Bool(o.bitexact)),
            ])
        })
        .collect();

    let n = report.records.len();
    let detections: u64 = report.records.iter().map(|r| u64::from(r.detected)).sum();
    let recoveries = report.records.iter().filter(|r| r.detected > 0).count();
    let latency_sum: u64 = report.records.iter().map(|r| r.latency_epochs).sum();
    let rollback_sum: u64 = report.records.iter().map(|r| u64::from(r.rollbacks)).sum();
    let wasted: u64 = report.records.iter().map(|r| r.wasted_events).sum();
    let ckpt_bytes: u64 = report.records.iter().map(|r| r.checkpoint_bytes).sum();
    let summary = Json::obj([
        ("scenarios", Json::Num(n as f64)),
        ("detections", Json::Num(detections as f64)),
        (
            "mean_detection_latency_epochs",
            Json::Num(latency_sum as f64 / recoveries.max(1) as f64),
        ),
        (
            "mean_rollbacks_per_recovery",
            Json::Num(rollback_sum as f64 / recoveries.max(1) as f64),
        ),
        ("wasted_events_total", Json::Num(wasted as f64)),
        ("checkpoint_bytes_total", Json::Num(ckpt_bytes as f64)),
    ]);

    Json::obj([
        ("schema", Json::Str(CHAOS.tag.into())),
        ("seed", Json::Num(report.seed as f64)),
        ("scenarios", Json::Arr(scenarios)),
        ("overhead", Json::Arr(overhead)),
        ("summary", summary),
    ])
}

fn main() {
    let args = gp_bench::cli::finish(parse(std::env::args().skip(1)), USAGE);
    let doc = to_json(&run_campaign(args.seed));
    let record = gp_bench::json::render(&doc);
    print!("{record}");
    let verdict = write_output(&args.out, &record).and_then(|()| {
        println!("wrote {}", args.out.display());
        let out = args.out.display();
        CHAOS
            .validate(&doc)
            .map_err(|e| format!("`{out}` failed schema check: {e}"))
    });
    if let Err(e) = verdict {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
