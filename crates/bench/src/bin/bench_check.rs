//! Schema validator for the machine-readable bench output.
//!
//! ```text
//! cargo run -p gp-bench --bin bench_check -- BENCH_chaos.json [...]
//! ```
//!
//! For every path given: the file must exist, parse as JSON, and carry a
//! known schema tag, which selects the validator — `gp-bench/chaos/v1`
//! documents go through `gp_bench::json::validate_chaos` (every scenario
//! detected and recovered, overhead baselines bit-exact, summary present),
//! `gp-bench/serve/v3` documents through `gp_bench::json::validate_serve`
//! (non-empty executor sweep, ordered per-class latency quantiles per run,
//! golden cross-checks ran and passed), and `gp-bench/outofcore/v2`
//! documents through `gp_bench::json::validate_outofcore` (consistent
//! bytes-moved-per-edge accounting, positive throughput on both engines,
//! turbo within tolerance of golden, and — when a resident-memory budget
//! was enforced — a mapped working state that fits where the fully
//! resident graph cannot). CI runs this so the bench binaries can never
//! silently stop emitting measurements.
//!
//! ```text
//! cargo run -p gp-bench --bin bench_check -- fresh.json --against BENCH_outofcore.json
//! ```
//!
//! With `--against`, both records are validated and then the fresh one is
//! held to the committed one on the fields a rerun reproduces exactly
//! (`gp_bench::json::compare_against`): an out-of-core entry's counts and
//! bytes, a serve run's cold / warm / fused run counts. Wall times are
//! printed side by side, not compared. Out-of-core and serve records only.
//!
//! Exit status: 0 when every file passes, 1 when a file fails its schema's
//! validation or differs from the record it is held against, 2 on a bad
//! invocation or an unknown schema tag (the diagnostic names the known
//! tags).

use gp_bench::json::{
    compare_against, validate_chaos, validate_outofcore, validate_serve, Json, CHAOS_SCHEMA,
    OUTOFCORE_SCHEMA, SERVE_SCHEMA,
};

const USAGE: &str = "\
Usage: bench_check <BENCH_*.json> [more.json ...]
       bench_check <fresh.json> --against <committed.json>

Validates machine-readable bench output against its embedded schema tag.
Known schemas: gp-bench/chaos/v1, gp-bench/serve/v3, gp-bench/outofcore/v2.

--against also holds an out-of-core or serve record to a committed one on
every run-invariant count (out-of-core entries paired by log2_vertices,
serve runs by executors); wall times are printed, not compared.

Exit status: 0 when every file passes, 1 on a validation failure or a
count that differs, 2 on a bad invocation or an unknown schema tag.";

type Validator = fn(&Json) -> Result<(), String>;

/// How badly one file failed: validation failures exit 1, structural
/// problems (unreadable, unparsable, unknown schema) exit 2.
struct CheckError {
    exit: i32,
    message: String,
}

impl CheckError {
    fn invalid(message: String) -> Self {
        CheckError { exit: 1, message }
    }

    fn unusable(message: String) -> Self {
        CheckError { exit: 2, message }
    }
}

fn check(path: &str) -> Result<Json, CheckError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CheckError::unusable(format!("cannot read `{path}`: {e}")))?;
    let doc = gp_bench::json::parse(&text)
        .map_err(|e| CheckError::unusable(format!("`{path}` is not valid JSON: {e}")))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| CheckError::unusable(format!("`{path}` has no string key \"schema\"")))?;
    let (validate, count_key): (Validator, &str) = match schema {
        CHAOS_SCHEMA => (validate_chaos, "scenarios"),
        SERVE_SCHEMA => (validate_serve, "runs"),
        OUTOFCORE_SCHEMA => (validate_outofcore, "entries"),
        other => {
            return Err(CheckError::unusable(format!(
                "`{path}` has unknown schema {other:?} \
                 (known: {CHAOS_SCHEMA:?}, {SERVE_SCHEMA:?}, {OUTOFCORE_SCHEMA:?})"
            )))
        }
    };
    validate(&doc)
        .map_err(|e| CheckError::invalid(format!("`{path}` failed schema check: {e}")))?;
    let count = doc
        .get(count_key)
        .and_then(Json::as_arr)
        .map_or(0, |a| a.len());
    println!("ok: {path} ({count} {count_key})");
    Ok(doc)
}

/// Validates both records, then holds `fresh` to `committed`.
fn check_against(fresh: &str, committed: &str) -> Result<(), CheckError> {
    let (f, c) = (check(fresh)?, check(committed)?);
    let schema = |doc: &Json| doc.get("schema").and_then(Json::as_str).map(str::to_owned);
    if schema(&f) != schema(&c) || schema(&f).as_deref() == Some(CHAOS_SCHEMA) {
        return Err(CheckError::unusable(format!(
            "cannot hold `{fresh}` to `{committed}`: --against compares two \
             {OUTOFCORE_SCHEMA:?} or two {SERVE_SCHEMA:?} records"
        )));
    }
    let notes = compare_against(&f, &c)
        .map_err(|e| CheckError::invalid(format!("`{fresh}` differs from `{committed}`:\n{e}")))?;
    for note in notes {
        println!("  {note}");
    }
    println!("ok: {fresh} matches {committed} on every run-invariant count");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|p| p == "--help" || p == "-h") {
        println!("{USAGE}");
        return;
    }
    if args.is_empty() {
        eprintln!("error: no files given\n\n{USAGE}");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--against") {
        let (fresh, committed) = match args.as_slice() {
            [fresh, flag, committed] if flag == "--against" => (fresh, committed),
            _ => {
                eprintln!("error: write <fresh.json> --against <committed.json>\n\n{USAGE}");
                std::process::exit(2);
            }
        };
        if let Err(e) = check_against(fresh, committed) {
            eprintln!("error: {}", e.message);
            std::process::exit(e.exit);
        }
        return;
    }
    let mut exit = 0;
    for path in &args {
        if let Err(e) = check(path) {
            eprintln!("error: {}", e.message);
            exit = exit.max(e.exit);
        }
    }
    std::process::exit(exit);
}
