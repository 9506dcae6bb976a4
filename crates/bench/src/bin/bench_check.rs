//! Schema validator for the machine-readable bench output.
//!
//! ```text
//! cargo run -p gp-bench --bin bench_check -- BENCH_chaos.json [...]
//! ```
//!
//! For every path given: the file must exist, parse as JSON, and carry a
//! schema tag that `gp_bench::json::SCHEMAS` lists. The tag selects the
//! record's table, and `gp_bench::json::Schema::validate` holds the file to
//! it: every listed key present, of its kind and sign, the table's
//! cross-field rules (a chaos scenario detected and recovered, a serve run's
//! golden cross-checks ran and passed, an out-of-core algorithm's traffic
//! accounting balances, …), and no key the table does not list. The
//! producers (`chaos`, `serve_bench`, `container`) run the same
//! `Schema::validate` on the record they write and exit 1 when it refuses,
//! so a fresh record that reaches this checker has passed it once already;
//! CI runs it on the fresh and the committed records alike, so neither can
//! silently stop carrying a measurement.
//!
//! ```text
//! cargo run -p gp-bench --bin bench_check -- fresh.json --against BENCH_outofcore.json
//! ```
//!
//! With `--against`, both records are validated and then the fresh one is
//! held to the committed one on the keys its table marks as reproduced
//! exactly by a rerun (`gp_bench::json::compare_against`): an out-of-core
//! entry's counts and bytes, a serve run's cold / warm / fused run counts.
//! Wall times are printed side by side, not compared. Only schemas whose
//! table holds some key exactly can be compared.
//!
//! Exit status: 0 when every file passes, 1 when a file fails its schema's
//! validation or differs from the record it is held against, 2 on a bad
//! invocation or an unknown schema tag (the diagnostic names the known
//! tags).

use gp_bench::json::{compare_against, Json, Schema, SCHEMAS};

fn usage() -> String {
    let known: Vec<&str> = SCHEMAS.iter().map(|s| s.tag).collect();
    format!(
        "\
Usage: bench_check <BENCH_*.json> [more.json ...]
       bench_check <fresh.json> --against <committed.json>

Validates machine-readable bench output against its embedded schema tag.
Known schemas: {}.

--against also holds an out-of-core or serve record to a committed one on
every run-invariant count (out-of-core entries paired by log2_vertices,
serve runs by executors); wall times are printed, not compared.

Exit status: 0 when every file passes, 1 on a validation failure or a
count that differs, 2 on a bad invocation or an unknown schema tag.",
        known.join(", ")
    )
}

/// The tags of `schemas`, quoted.
fn quoted<'a>(schemas: impl Iterator<Item = &'a &'static Schema>) -> Vec<String> {
    schemas.map(|s| format!("{:?}", s.tag)).collect()
}

/// How badly a file failed, and why: validation failures exit 1,
/// structural problems (unreadable, unparsable, unknown schema) exit 2.
type Failure = (i32, String);

fn check(path: &str) -> Result<(Json, &'static Schema), Failure> {
    let text =
        std::fs::read_to_string(path).map_err(|e| (2, format!("cannot read `{path}`: {e}")))?;
    let doc = gp_bench::json::parse(&text)
        .map_err(|e| (2, format!("`{path}` is not valid JSON: {e}")))?;
    let tag = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| (2, format!("`{path}` has no string key \"schema\"")))?;
    let known = quoted(SCHEMAS.iter()).join(", ");
    let schema = gp_bench::json::schema(tag).ok_or_else(|| {
        (
            2,
            format!("`{path}` has unknown schema {tag:?} (known: {known})"),
        )
    })?;
    schema
        .validate(&doc)
        .map_err(|e| (1, format!("`{path}` failed schema check: {e}")))?;
    let count_key = schema.count_key();
    let rows = doc.get(count_key).and_then(Json::as_arr);
    println!("ok: {path} ({} {count_key})", rows.map_or(0, <[_]>::len));
    Ok((doc, schema))
}

/// Validates both records, then holds `fresh` to `committed`.
fn check_against(fresh: &str, committed: &str) -> Result<(), Failure> {
    let ((f, f_schema), (c, c_schema)) = (check(fresh)?, check(committed)?);
    if f_schema.tag != c_schema.tag || !f_schema.compares() {
        // Out-of-core first: the schemas in reverse.
        let comparable = quoted(SCHEMAS.iter().rev().filter(|s| s.compares())).join(" or two ");
        let message = format!(
            "cannot hold `{fresh}` to `{committed}`: --against compares two {comparable} records"
        );
        return Err((2, message));
    }
    let notes = compare_against(&f, &c)
        .map_err(|e| (1, format!("`{fresh}` differs from `{committed}`:\n{e}")))?;
    for note in notes {
        println!("  {note}");
    }
    println!("ok: {fresh} matches {committed} on every run-invariant count");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|p| p == "--help" || p == "-h") {
        println!("{}", usage());
        return;
    }
    if args.is_empty() {
        eprintln!("error: no files given\n\n{}", usage());
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--against") {
        let (fresh, committed) = match args.as_slice() {
            [fresh, flag, committed] if flag == "--against" => (fresh, committed),
            _ => {
                eprintln!(
                    "error: write <fresh.json> --against <committed.json>\n\n{}",
                    usage()
                );
                std::process::exit(2);
            }
        };
        if let Err((exit, message)) = check_against(fresh, committed) {
            eprintln!("error: {message}");
            std::process::exit(exit);
        }
        return;
    }
    let mut exit = 0;
    for path in &args {
        if let Err((status, message)) = check(path) {
            eprintln!("error: {message}");
            exit = exit.max(status);
        }
    }
    std::process::exit(exit);
}
