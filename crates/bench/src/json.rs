//! JSON for machine-readable bench output: the `BENCH_*.json` files the
//! bench binaries emit and `bench_check` reads back.
//!
//! The workspace builds hermetically offline (no serde). The value type,
//! its writer (two-space indent, keys in insertion order, so reruns diff
//! cleanly) and its strict recursive-descent parser are the repo
//! benchmark's (`benchmark/src/json.rs`), compiled in by path: one JSON
//! implementation in the repository, owned by the package that must not
//! depend on this one. This module adds the two checks a bench record
//! wants on top — [`render`] refuses a non-finite number instead of writing
//! `null`, [`parse`] refuses a duplicate key instead of letting
//! [`Json::get`] shadow it — and the record schemas.
//!
//! Each record is described once, by a [`Schema`]: its tag and a table that
//! lists every key with its kind (a number under a sign rule, text, a flag,
//! a nested object, or a table of rows) and its role under `--against`
//! (reproduced exactly by a rerun, wall time, or neither), plus one rule
//! function per table for what a key's kind cannot state. Two walkers read
//! the tables: [`Schema::validate`], which also refuses a key its table does
//! not list, and [`compare_against`]. Extending a record is an edit to its
//! table; [`SCHEMAS`] is the list `bench_check` looks a tag up in.

#[allow(missing_docs)]
#[path = "../../../benchmark/src/json.rs"]
mod value;

pub use value::Json;

/// Whether `pred` holds for `doc` or for anything nested in it.
fn any(doc: &Json, pred: &dyn Fn(&Json) -> bool) -> bool {
    pred(doc)
        || match doc {
            Json::Arr(items) => items.iter().any(|item| any(item, pred)),
            Json::Obj(pairs) => pairs.iter().any(|(_, value)| any(value, pred)),
            _ => false,
        }
}

/// Renders a bench record with two-space indentation and a trailing
/// newline.
///
/// # Panics
///
/// Panics on non-finite numbers — JSON cannot represent them, and a bench
/// emitting NaN is a bug worth failing loudly on.
#[must_use]
pub fn render(doc: &Json) -> String {
    let non_finite = |j: &Json| matches!(j, Json::Num(n) if !n.is_finite());
    assert!(!any(doc, &non_finite), "JSON cannot encode NaN or infinity");
    doc.render_pretty()
}

/// Parses a complete bench record (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a message naming the first problem: malformed JSON (with its
/// byte offset) or an object with a duplicate key.
pub fn parse(text: &str) -> Result<Json, String> {
    let doc = Json::parse(text)?;
    let duplicate_key = |j: &Json| match j {
        Json::Obj(pairs) => (1..pairs.len()).any(|i| pairs[..i].iter().any(|p| p.0 == pairs[i].0)),
        _ => false,
    };
    if any(&doc, &duplicate_key) {
        return Err("an object repeats a key".into());
    }
    Ok(doc)
}

/// One kind of bench record: its tag and the table for the document.
pub struct Schema {
    /// The `schema` value the record carries.
    pub tag: &'static str,
    table: Table,
}

/// The keys of one object, in the order they are checked, and its rule
/// function for what a key's kind cannot state. The rules are called with
/// each key once it has passed, the object and the whole document: a rule
/// runs after the last key it reads.
struct Table {
    rules: fn(&str, &Json, &Json) -> Result<(), String>,
    fields: &'static [Keys],
}

/// Listed keys that share a kind and a role under `--against`.
struct Keys(&'static [&'static str], Kind, Role);

/// What a listed key holds.
enum Kind {
    Num(Bound),
    Text,
    Flag,
    /// A flag that must be true; when it is false, `why` it matters.
    True(&'static str),
    /// An object; its errors are prefixed `<key>: `. `--against` does not
    /// look inside it.
    Obj(Table),
    /// A non-empty array of rows.
    Rows(RowTable),
}

/// An array of rows, each held to `table`.
struct RowTable {
    /// Names a row in an error: `<label> <index>: `.
    label: &'static str,
    /// What an empty array means for the document.
    empty: &'static str,
    /// The key `--against` pairs rows by; `None` leaves the rows unpaired.
    id: Option<&'static str>,
    /// Whether a committed row the fresh record lacks is a mismatch (else a
    /// note).
    all: bool,
    table: Table,
}

/// Sign rule a numeric field is held to.
enum Bound {
    Positive,
    NonNegative,
    Any,
}

/// What `--against` does with a listed key.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// Reproduced exactly by a rerun of an unchanged program, whatever the
    /// host: held equal.
    Exact,
    /// Wall time: printed beside the committed value.
    Wall,
    /// Neither: validated only.
    Plain,
}

use Bound::{Any, NonNegative, Positive};
use Kind::{Flag, Num, Obj, Rows, Text, True};
use Role::{Exact, Plain, Wall};

/// Every known record, in the order `bench_check` names them.
pub static SCHEMAS: [&Schema; 3] = [&CHAOS, &SERVE, &OUTOFCORE];

/// `BENCH_chaos.json`: the fault-injection campaign. Every scenario
/// detected its fault and recovered to the reference (the "never silently
/// wrong" contract), every fault-free overhead run is bit-exact, and the
/// summary totals are the scenarios' sums.
#[rustfmt::skip]
pub static CHAOS: Schema = Schema { tag: "gp-bench/chaos/v1", table: Table { rules: chaos_rules, fields: &[
    Keys(&["schema"], Text, Plain),
    Keys(&["seed"], Num(Any), Plain),
    Keys(&["scenarios"], Rows(RowTable {
        label: "scenario", empty: "the campaign ran nothing", id: None, all: false,
        table: Table { rules: scenario_rules, fields: &[
            Keys(&["fault", "algo", "mode", "backend", "detector", "recovery"], Text, Plain),
            Keys(&["detected", "detection_latency_epochs", "rollbacks"], Num(NonNegative), Plain),
            Keys(&["wasted_events", "checkpoint_bytes", "max_abs_diff"], Num(NonNegative), Plain),
            Keys(&["result_ok"], True("the recovered result diverged"), Plain),
        ] },
    }), Plain),
    Keys(&["overhead"], Rows(RowTable {
        label: "overhead", empty: "no fault-free baseline was measured", id: None, all: false,
        table: Table { rules: overhead_rules, fields: &[
            Keys(&["algo"], Text, Plain),
            Keys(&["events_processed", "epochs", "checkpoints"], Num(Positive), Plain),
            Keys(&["checkpoint_words", "checkpoint_bytes"], Num(Positive), Plain),
            Keys(&["bitexact"], Flag, Plain),
            Keys(&["checkpoint_bytes_per_event"], Num(NonNegative), Plain),
        ] },
    }), Plain),
    Keys(&["summary"], Obj(Table { rules: |_, _, _| Ok(()), fields: &[
        Keys(&["scenarios", "detections"], Num(NonNegative), Plain),
        Keys(&["mean_detection_latency_epochs", "mean_rollbacks_per_recovery"], Num(NonNegative), Plain),
        Keys(&["wasted_events_total", "checkpoint_bytes_total"], Num(NonNegative), Plain),
    ] }), Plain),
] } };

/// `BENCH_serve.json`: one run per executor count of the sweep, each with
/// a per-class latency table (ordered p50 ≤ p99 ≤ p999) that accounts for
/// every served query, and the golden cross-check record: some samples
/// verified, none diverged.
#[rustfmt::skip]
pub static SERVE: Schema = Schema { tag: "gp-bench/serve/v3", table: Table { rules: |_, _, _| Ok(()), fields: &[
    Keys(&["schema"], Text, Plain),
    Keys(&["seed"], Num(Any), Exact),
    Keys(&["vertices", "edges"], Num(Positive), Exact),
    Keys(&["tenants", "clients"], Num(Positive), Plain),
    Keys(&["runs"], Rows(RowTable {
        label: "run", empty: "the sweep ran no executor configuration", id: Some("executors"), all: false,
        table: Table { rules: serve_run_rules, fields: &[
            Keys(&["executors"], Num(Positive), Plain),
            Keys(&["queries_total"], Num(Positive), Exact),
            Keys(&["wall_secs"], Num(Positive), Wall),
            Keys(&["throughput_qps"], Num(Positive), Plain),
            Keys(&["rejected", "degraded", "epochs_published", "update_batches"], Num(NonNegative), Plain),
            Keys(&["cold_runs", "warm_starts", "fused_runs"], Num(NonNegative), Exact),
            // `path_warm_starts` moves by a few between runs of one binary.
            Keys(&["path_cache_hits", "path_warm_starts"], Num(NonNegative), Plain),
            Keys(&["verified_samples", "verify_failures"], Num(NonNegative), Plain),
            Keys(&["classes"], Rows(RowTable {
                label: "class", empty: "the bench served no query class", id: None, all: false,
                table: Table { rules: class_rules, fields: &[
                    Keys(&["class"], Text, Plain),
                    Keys(&["served", "mean_us", "p50_us", "p99_us", "p999_us", "max_us"], Num(NonNegative), Plain),
                ] },
            }), Plain),
        ] },
    }), Plain),
] } };

/// `BENCH_outofcore.json`: per scale, the container geometry and the
/// analytic fully-resident footprint beside the measured mapped working
/// state; per algorithm, traffic accounting that balances
/// (`bytes_moved = rowptr_bytes + edge_bytes`, `bytes_per_edge = bytes_moved
/// / edges_read`) and turbo within the algorithm's tolerance of golden.
/// Under a resident-memory budget (`budget_mb > 0`) every mapped working
/// state fits and some resident footprint does not — otherwise the run
/// demonstrated nothing about out-of-core execution.
#[rustfmt::skip]
pub static OUTOFCORE: Schema = Schema { tag: "gp-bench/outofcore/v2", table: Table { rules: outofcore_rules, fields: &[
    Keys(&["schema"], Text, Plain),
    Keys(&["seed"], Num(Any), Exact),
    Keys(&["edge_factor"], Num(Positive), Exact),
    Keys(&["budget_mb"], Num(NonNegative), Plain),
    Keys(&["entries"], Rows(RowTable {
        label: "entry", empty: "the bench measured no scale", id: Some("log2_vertices"), all: false,
        table: Table { rules: entry_rules, fields: &[
            Keys(&["log2_vertices", "vertices"], Num(Positive), Plain),
            Keys(&["edges", "container_bytes"], Num(Positive), Exact),
            Keys(&["resident_graph_bytes", "mapped_state_bytes"], Num(Positive), Plain),
            Keys(&["build_secs"], Num(NonNegative), Wall),
            Keys(&["weighted", "kernel_mapped"], Flag, Plain),
            Keys(&["algos"], Rows(RowTable {
                label: "algo", empty: "no algorithm was measured", id: Some("algo"), all: true,
                table: Table { rules: algo_rules, fields: &[
                    Keys(&["algo"], Text, Plain),
                    Keys(&["events_processed"], Num(Positive), Exact),
                    Keys(&["events_per_sec"], Num(Positive), Plain),
                    Keys(&["edges_read", "bytes_moved"], Num(Positive), Exact),
                    Keys(&["bytes_per_edge", "turbo_events_per_sec"], Num(Positive), Plain),
                    Keys(&["wall_secs"], Num(NonNegative), Wall),
                    Keys(&["rowptr_bytes", "edge_bytes"], Num(NonNegative), Exact),
                    Keys(&["turbo_wall_secs"], Num(NonNegative), Wall),
                    Keys(&["turbo_max_abs_diff"], Num(NonNegative), Exact),
                    Keys(&["turbo_ok"], True("turbo over the mapping diverged from golden beyond tolerance"), Plain),
                ] },
            }), Plain),
        ] },
    }), Plain),
] } };

fn chaos_rules(key: &str, doc: &Json, _: &Json) -> Result<(), String> {
    let Some(summary) = doc.get(key).filter(|_| key == "summary") else {
        return Ok(());
    };
    let scenarios = items(doc.get("scenarios"));
    let n = value(summary, "scenarios");
    if n != scenarios.len() as f64 {
        let listed = scenarios.len();
        return Err(format!(
            "summary.scenarios is {n} but {listed} scenarios are listed"
        ));
    }
    for (total, per) in [
        ("detections", "detected"),
        ("wasted_events_total", "wasted_events"),
        ("checkpoint_bytes_total", "checkpoint_bytes"),
    ] {
        let (t, s) = (value(summary, total), sum(scenarios, per));
        if t != s {
            return Err(format!(
                "summary.{total} is {t} but the scenarios' {per} sum to {s}"
            ));
        }
    }
    Ok(())
}

fn scenario_rules(key: &str, s: &Json, _: &Json) -> Result<(), String> {
    if key == "max_abs_diff" && value(s, "detected") < 1.0 {
        return Err("fault was never detected (detected < 1)".into());
    }
    Ok(())
}

fn overhead_rules(key: &str, o: &Json, _: &Json) -> Result<(), String> {
    let per_event = value(o, "checkpoint_bytes") / value(o, "events_processed").max(1.0);
    match key {
        // Before `bitexact` is read as a flag: a missing one is not true.
        "checkpoint_bytes" if o.get("bitexact") != Some(&Json::Bool(true)) => {
            Err("bitexact is not true — the fault-free chaos run diverged".into())
        }
        "checkpoint_bytes_per_event" => {
            near(o, key, per_event, "checkpoint_bytes / events_processed")
        }
        _ => Ok(()),
    }
}

fn serve_run_rules(key: &str, run: &Json, _: &Json) -> Result<(), String> {
    let (failures, total) = (value(run, "verify_failures"), value(run, "queries_total"));
    let served_sum = sum(items(run.get("classes")), "served");
    match key {
        "verify_failures" if value(run, "verified_samples") < 1.0 => {
            Err("verified_samples is 0 — no golden cross-checks ran".into())
        }
        "verify_failures" if failures != 0.0 => Err(format!(
            "verify_failures is {failures} — sampled answers diverged from the golden recompute"
        )),
        "classes" if served_sum != total => Err(format!(
            "per-class served totals sum to {served_sum} but queries_total is {total}"
        )),
        _ => Ok(()),
    }
}

fn class_rules(key: &str, class: &Json, _: &Json) -> Result<(), String> {
    let q = |key| value(class, key);
    let (p50, p99, p999) = (q("p50_us"), q("p99_us"), q("p999_us"));
    if key == "max_us" && (p50 > p99 || p99 > p999) {
        return Err(format!(
            "quantiles out of order: p50 {p50} p99 {p99} p999 {p999}"
        ));
    }
    Ok(())
}

fn outofcore_rules(key: &str, doc: &Json, _: &Json) -> Result<(), String> {
    let budget_mb = value(doc, "budget_mb");
    let over = |e: &Json| value(e, "resident_graph_bytes") > budget_mb * MIB;
    if key == "entries" && budget_mb > 0.0 && !items(doc.get(key)).iter().any(over) {
        return Err(format!(
            "budget_mb is {budget_mb} but no entry's resident_graph_bytes exceeds it \
             — the budget demonstrates nothing"
        ));
    }
    Ok(())
}

fn entry_rules(key: &str, entry: &Json, doc: &Json) -> Result<(), String> {
    let (budget_mb, mapped_state) = (value(doc, "budget_mb"), value(entry, "mapped_state_bytes"));
    if key == "kernel_mapped" && budget_mb > 0.0 && mapped_state > budget_mb * MIB {
        return Err(format!(
            "mapped_state_bytes {mapped_state} exceeds the {budget_mb} MiB budget \
             — the out-of-core path did not fit"
        ));
    }
    Ok(())
}

fn algo_rules(key: &str, a: &Json, _: &Json) -> Result<(), String> {
    let moved = value(a, "bytes_moved");
    let parts = value(a, "rowptr_bytes") + value(a, "edge_bytes");
    match key {
        "turbo_max_abs_diff" if moved != parts => Err(format!(
            "bytes_moved is {moved} but rowptr_bytes + edge_bytes is {parts}"
        )),
        "turbo_max_abs_diff" => {
            let per_edge = moved / value(a, "edges_read");
            near(a, "bytes_per_edge", per_edge, "bytes_moved / edges_read")
        }
        _ => Ok(()),
    }
}

/// Bytes in a MiB, as `budget_mb` counts them.
const MIB: f64 = (1u64 << 20) as f64;

/// The number at `key`, which has passed its table.
fn value(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Holds the number at `key` to `expect` (`formula`) within 1e-9 relative.
fn near(obj: &Json, key: &str, expect: f64, formula: &str) -> Result<(), String> {
    let got = value(obj, key);
    if (got - expect).abs() > 1e-9 * expect.max(1.0) {
        return Err(format!("{key} is {got} but {formula} is {expect}"));
    }
    Ok(())
}

/// The sum of `key` over `rows`, which have passed their table.
fn sum(rows: &[Json], key: &str) -> f64 {
    rows.iter().fold(0.0, |s, row| s + value(row, key))
}

/// The number at `key`, held to `bound`.
fn num(obj: &Json, key: &str, bound: &Bound) -> Result<f64, String> {
    let v = obj
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric key {key:?}"))?;
    match bound {
        Bound::Positive if v <= 0.0 => Err(format!("{key} must be positive, got {v}")),
        Bound::NonNegative if v < 0.0 => Err(format!("{key} must be >= 0, got {v}")),
        _ => Ok(v),
    }
}

/// The string at `key`.
fn text<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string key {key:?}"))
}

/// The boolean at `key`.
fn flag(obj: &Json, key: &str) -> Result<bool, String> {
    match obj.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean key {key:?}")),
    }
}

/// The array at `key`, which must have rows; `what` says what an empty one
/// means for the document.
fn rows<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a [Json], String> {
    let items = obj
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array key {key:?}"))?;
    if items.is_empty() {
        return Err(format!("{key:?} is empty — {what}"));
    }
    Ok(items)
}

/// Holds the document's `schema` tag to `want`.
fn schema_is(doc: &Json, want: &str) -> Result<(), String> {
    let schema = text(doc, "schema")?;
    if schema != want {
        return Err(format!("schema is {schema:?}, expected {want:?}"));
    }
    Ok(())
}

/// The schema whose tag is `tag`.
pub fn schema(tag: &str) -> Option<&'static Schema> {
    SCHEMAS.iter().copied().find(|s| s.tag == tag)
}

impl Schema {
    /// Validates a document of this schema: its tag, then every key its
    /// table lists, in the table's order, each followed by the rules that
    /// read it. A key the table does not list is refused.
    ///
    /// # Errors
    ///
    /// Returns a readable description of the first violated rule, prefixed
    /// with the row it is in (`run 1: class 0: `).
    pub fn validate(&self, doc: &Json) -> Result<(), String> {
        schema_is(doc, self.tag)?;
        self.table.validate(doc, doc)
    }

    /// Whether `--against` applies: the document holds some key exactly.
    pub fn compares(&self) -> bool {
        self.table.keys().any(|(_, _, role)| role == Exact)
    }

    /// The key of the document's first row table, the one `bench_check`
    /// counts.
    pub fn count_key(&self) -> &'static str {
        let rows = self
            .table
            .keys()
            .find(|(_, kind, _)| matches!(kind, Rows(_)));
        rows.map_or("", |(key, _, _)| key)
    }
}

impl Table {
    /// Every listed key, in order, with its kind and role.
    fn keys(&self) -> impl Iterator<Item = (&'static str, &Kind, Role)> {
        let groups = self.fields.iter();
        groups.flat_map(|Keys(keys, kind, role)| keys.iter().map(move |key| (*key, kind, *role)))
    }

    fn validate(&self, obj: &Json, doc: &Json) -> Result<(), String> {
        for (key, kind, _) in self.keys() {
            match kind {
                Num(bound) => drop(num(obj, key, bound)?),
                Text => drop(text(obj, key)?),
                Flag => drop(flag(obj, key)?),
                True(why) if !flag(obj, key)? => return Err(format!("{key} is false — {why}")),
                True(_) => {}
                Obj(table) => {
                    let inner = obj.get(key).ok_or(format!("missing object key {key:?}"))?;
                    table
                        .validate(inner, doc)
                        .map_err(|e| format!("{key}: {e}"))?;
                }
                Rows(r) => {
                    for (i, row) in rows(obj, key, r.empty)?.iter().enumerate() {
                        let row_error = |e| format!("{} {i}: {e}", r.label);
                        r.table.validate(row, doc).map_err(row_error)?;
                    }
                }
            }
            (self.rules)(key, obj, doc)?;
        }
        let unlisted = |(k, _): &&(String, Json)| !self.keys().any(|(key, _, _)| key == k);
        let pairs = obj.as_obj().unwrap_or(&[]);
        pairs
            .iter()
            .find(unlisted)
            .map_or(Ok(()), |(key, _)| Err(format!("unlisted key {key:?}")))
    }

    /// Holds `fresh` to `committed` on every key this table marks; `at`
    /// names the object (empty for the document).
    fn compare(&self, cmp: &mut Comparison, at: &str, fresh: &Json, committed: &Json) {
        let here = if at.is_empty() { "record" } else { at };
        for (key, kind, role) in self.keys() {
            let (f, c) = (fresh.get(key), committed.get(key));
            match (kind, role) {
                (Rows(r), _) => cmp.rows(at, (items(f), items(c)), r, |cmp, at, f, c| {
                    r.table.compare(cmp, at, f, c);
                }),
                (_, Exact) if f != c => cmp.mismatches.push(format!(
                    "{here}: {key} is {} here but {} in the committed record",
                    shown(f),
                    shown(c)
                )),
                (_, Wall) => cmp.notes.push(format!(
                    "{here}: {key} {} (committed {})",
                    shown(f),
                    shown(c)
                )),
                _ => {}
            }
        }
    }
}

/// Holds a fresh bench record to a committed one of the same schema on
/// every key its table marks as reproduced exactly by a rerun of an
/// unchanged program, whatever the host. Rows are paired by their table's
/// id (out-of-core entries by `log2_vertices` and their algorithms by
/// `algo`, serve runs by `executors`).
///
/// A committed row the fresh record did not run is skipped; a fresh row the
/// committed record lacks, or a committed row the fresh one lacks where its
/// table says every row must pair (out-of-core algorithms), is a mismatch.
///
/// Returns one line per wall-clock field, fresh beside committed: those
/// are reported, not held to anything.
///
/// # Errors
///
/// Returns every mismatch, one per line, each naming its row and field;
/// or one line when the records' schemas differ or hold nothing exactly.
pub fn compare_against(fresh: &Json, committed: &Json) -> Result<Vec<String>, String> {
    let tag = text(fresh, "schema")?;
    schema_is(committed, tag)?;
    let schema = schema(tag)
        .filter(|s| s.compares())
        .ok_or_else(|| format!("{tag:?} records have no run-invariant fields to compare"))?;
    let mut cmp = Comparison::default();
    schema.table.compare(&mut cmp, "", fresh, committed);
    if cmp.mismatches.is_empty() {
        Ok(cmp.notes)
    } else {
        Err(cmp.mismatches.join("\n"))
    }
}

/// What [`compare_against`] has found so far.
#[derive(Default)]
struct Comparison {
    notes: Vec<String>,
    mismatches: Vec<String>,
}

/// A field's value for a message: its JSON, or `missing`.
fn shown(value: Option<&Json>) -> String {
    value.map_or_else(|| "missing".into(), Json::render)
}

/// The rows of an array, or none.
fn items(array: Option<&Json>) -> &[Json] {
    array.and_then(Json::as_arr).unwrap_or(&[])
}

impl Comparison {
    /// Pairs the `fresh` and `committed` rows of `table` by its id and runs
    /// `check` on each pair; rows without an id are not compared. A fresh
    /// row with no committed twin is a mismatch; a committed row with no
    /// fresh twin is one only when the table says every row must pair, and
    /// otherwise a note.
    fn rows(
        &mut self,
        at: &str,
        (fresh, committed): (&[Json], &[Json]),
        table: &RowTable,
        mut check: impl FnMut(&mut Self, &str, &Json, &Json),
    ) {
        let Some(id) = table.id else { return };
        let sep = if at.is_empty() { "" } else { " / " };
        let label = |row: &Json| format!("{at}{sep}{id} {}", shown(row.get(id)));
        let twin = |rows: &[Json], row: &Json| rows.iter().position(|r| r.get(id) == row.get(id));
        for f in fresh {
            match twin(committed, f) {
                Some(i) => check(self, &label(f), f, &committed[i]),
                None => self
                    .mismatches
                    .push(format!("{}: not in the committed record", label(f))),
            }
        }
        for c in committed.iter().filter(|c| twin(fresh, c).is_none()) {
            let (list, what) = match table.all {
                true => (&mut self.mismatches, "in the committed record only"),
                false => (&mut self.notes, "not run here, skipped"),
            };
            list.push(format!("{}: {what}", label(c)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let doc = Json::obj([
            ("schema", Json::Str("x/y/v1".into())),
            ("count", Json::Num(42.0)),
            ("rate", Json::Num(1.5e9)),
            ("ok", Json::Bool(true)),
            ("nothing", Json::Null),
            (
                "items",
                Json::Arr(vec![
                    Json::Num(-1.0),
                    Json::Str("quote \" backslash \\ newline \n".into()),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        let text = render(&doc);
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        // Integers must render without a fraction.
        assert!(text.contains("\"count\": 42,"), "{text}");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "\"unterminated",
            "nul",
            "1e999", // overflows to inf
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    fn sample_chaos_doc() -> Json {
        Json::obj([
            ("schema", Json::Str(CHAOS.tag.into())),
            ("seed", Json::Num(42.0)),
            (
                "scenarios",
                Json::Arr(vec![Json::obj([
                    ("fault", Json::Str("drop-event".into())),
                    ("algo", Json::Str("sssp".into())),
                    ("mode", Json::Str("transient".into())),
                    ("backend", Json::Str("chaos-exec".into())),
                    ("detected", Json::Num(1.0)),
                    ("detector", Json::Str("event-conservation".into())),
                    ("detection_latency_epochs", Json::Num(0.0)),
                    ("recovery", Json::Str("rollback".into())),
                    ("rollbacks", Json::Num(1.0)),
                    ("wasted_events", Json::Num(12.0)),
                    ("checkpoint_bytes", Json::Num(4096.0)),
                    ("max_abs_diff", Json::Num(0.0)),
                    ("result_ok", Json::Bool(true)),
                ])]),
            ),
            (
                "overhead",
                Json::Arr(vec![Json::obj([
                    ("algo", Json::Str("sssp".into())),
                    ("events_processed", Json::Num(400.0)),
                    ("epochs", Json::Num(25.0)),
                    ("checkpoints", Json::Num(24.0)),
                    ("checkpoint_words", Json::Num(2600.0)),
                    ("checkpoint_bytes", Json::Num(21248.0)),
                    ("checkpoint_bytes_per_event", Json::Num(53.12)),
                    ("bitexact", Json::Bool(true)),
                ])]),
            ),
            (
                "summary",
                Json::obj([
                    ("scenarios", Json::Num(1.0)),
                    ("detections", Json::Num(1.0)),
                    ("mean_detection_latency_epochs", Json::Num(0.0)),
                    ("mean_rollbacks_per_recovery", Json::Num(1.0)),
                    ("wasted_events_total", Json::Num(12.0)),
                    ("checkpoint_bytes_total", Json::Num(4096.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn chaos_validator_accepts_a_complete_document() {
        CHAOS.validate(&sample_chaos_doc()).unwrap();
    }

    fn sample_serve_class(name: &str, served: f64) -> Json {
        Json::obj([
            ("class", Json::Str(name.into())),
            ("served", Json::Num(served)),
            ("mean_us", Json::Num(42.0)),
            ("p50_us", Json::Num(30.0)),
            ("p99_us", Json::Num(120.0)),
            ("p999_us", Json::Num(400.0)),
            ("max_us", Json::Num(900.0)),
        ])
    }

    fn sample_serve_run(executors: f64) -> Json {
        Json::obj([
            ("executors", Json::Num(executors)),
            ("queries_total", Json::Num(1000.0)),
            ("wall_secs", Json::Num(1.5)),
            ("throughput_qps", Json::Num(666.0)),
            ("rejected", Json::Num(0.0)),
            ("degraded", Json::Num(3.0)),
            ("epochs_published", Json::Num(8.0)),
            ("update_batches", Json::Num(8.0)),
            ("warm_starts", Json::Num(7.0)),
            ("cold_runs", Json::Num(2.0)),
            ("fused_runs", Json::Num(20.0)),
            ("path_cache_hits", Json::Num(500.0)),
            ("path_warm_starts", Json::Num(12.0)),
            ("verified_samples", Json::Num(64.0)),
            ("verify_failures", Json::Num(0.0)),
            (
                "classes",
                Json::Arr(vec![
                    sample_serve_class("pagerank", 400.0),
                    sample_serve_class("sssp", 600.0),
                ]),
            ),
        ])
    }

    fn sample_serve_doc() -> Json {
        Json::obj([
            ("schema", Json::Str(SERVE.tag.into())),
            ("seed", Json::Num(42.0)),
            ("vertices", Json::Num(65536.0)),
            ("edges", Json::Num(262144.0)),
            ("tenants", Json::Num(2.0)),
            ("clients", Json::Num(4.0)),
            (
                "runs",
                Json::Arr(vec![sample_serve_run(1.0), sample_serve_run(4.0)]),
            ),
        ])
    }

    /// Replaces one top-level numeric key in a serve doc.
    fn with_serve_field(mut doc: Json, key: &str, value: Json) -> Json {
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == key {
                    *v = value.clone();
                }
            }
        }
        doc
    }

    /// Replaces one key in every run of a serve doc's sweep.
    fn with_run_field(mut doc: Json, key: &str, value: Json) -> Json {
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k != "runs" {
                    continue;
                }
                if let Json::Arr(runs) = v {
                    for run in runs.iter_mut() {
                        if let Json::Obj(fields) = run {
                            for (rk, rv) in fields.iter_mut() {
                                if rk == key {
                                    *rv = value.clone();
                                }
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn serve_validator_accepts_a_complete_document() {
        SERVE.validate(&sample_serve_doc()).unwrap();
    }

    #[test]
    fn serve_validator_rejects_malformed_documents() {
        let err = SERVE
            .validate(&with_serve_field(
                sample_serve_doc(),
                "schema",
                Json::Str("other/v9".into()),
            ))
            .unwrap_err();
        assert!(err.contains("schema"), "{err}");

        let err = SERVE
            .validate(&with_serve_field(
                sample_serve_doc(),
                "clients",
                Json::Num(0.0),
            ))
            .unwrap_err();
        assert!(err.contains("clients must be positive"), "{err}");

        let err = SERVE
            .validate(&with_serve_field(
                sample_serve_doc(),
                "runs",
                Json::Arr(vec![]),
            ))
            .unwrap_err();
        assert!(err.contains("\"runs\" is empty"), "{err}");

        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "executors",
                Json::Num(0.0),
            ))
            .unwrap_err();
        assert!(err.contains("executors must be positive"), "{err}");

        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "verified_samples",
                Json::Num(0.0),
            ))
            .unwrap_err();
        assert!(err.contains("no golden cross-checks ran"), "{err}");

        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "verify_failures",
                Json::Num(2.0),
            ))
            .unwrap_err();
        assert!(err.contains("diverged from the golden recompute"), "{err}");

        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "throughput_qps",
                Json::Num(0.0),
            ))
            .unwrap_err();
        assert!(err.contains("throughput_qps must be positive"), "{err}");

        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "classes",
                Json::Arr(vec![]),
            ))
            .unwrap_err();
        assert!(err.contains("empty"), "{err}");

        // A missing run-level counter is named, with the run index.
        let mut doc = sample_serve_doc();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "runs" {
                    if let Json::Arr(runs) = v {
                        if let Json::Obj(fields) = &mut runs[1] {
                            fields.retain(|(rk, _)| rk != "path_warm_starts");
                        }
                    }
                }
            }
        }
        let err = SERVE.validate(&doc).unwrap_err();
        assert!(
            err.contains("run 1") && err.contains("path_warm_starts"),
            "{err}"
        );

        // Served totals must reconcile with queries_total.
        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "classes",
                Json::Arr(vec![sample_serve_class("pagerank", 999.0)]),
            ))
            .unwrap_err();
        assert!(err.contains("sum to 999"), "{err}");

        // Quantiles must be ordered.
        let mut class = sample_serve_class("bfs", 1000.0);
        if let Json::Obj(pairs) = &mut class {
            for (k, v) in pairs.iter_mut() {
                if k == "p99_us" {
                    *v = Json::Num(10.0);
                }
            }
        }
        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "classes",
                Json::Arr(vec![class]),
            ))
            .unwrap_err();
        assert!(err.contains("quantiles out of order"), "{err}");

        // A missing latency key is named in the error.
        let mut class = sample_serve_class("cc", 1000.0);
        if let Json::Obj(pairs) = &mut class {
            pairs.retain(|(k, _)| k != "p999_us");
        }
        let err = SERVE
            .validate(&with_run_field(
                sample_serve_doc(),
                "classes",
                Json::Arr(vec![class]),
            ))
            .unwrap_err();
        assert!(err.contains("p999_us"), "{err}");
    }

    #[test]
    fn chaos_validator_rejects_undetected_and_diverged_scenarios() {
        let mut doc = sample_chaos_doc();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "scenarios" {
                    if let Json::Arr(items) = v {
                        if let Json::Obj(fields) = &mut items[0] {
                            for (fk, fv) in fields.iter_mut() {
                                if fk == "detected" {
                                    *fv = Json::Num(0.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = CHAOS.validate(&doc).unwrap_err();
        assert!(err.contains("never detected"), "{err}");

        let mut doc = sample_chaos_doc();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "scenarios" {
                    if let Json::Arr(items) = v {
                        if let Json::Obj(fields) = &mut items[0] {
                            for (fk, fv) in fields.iter_mut() {
                                if fk == "result_ok" {
                                    *fv = Json::Bool(false);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = CHAOS.validate(&doc).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        let wrong_schema = Json::obj([
            ("schema", Json::Str("other/v9".into())),
            ("seed", Json::Num(1.0)),
        ]);
        assert!(CHAOS
            .validate(&wrong_schema)
            .unwrap_err()
            .contains("schema"));

        let missing_summary = Json::obj([
            ("schema", Json::Str(CHAOS.tag.into())),
            ("seed", Json::Num(1.0)),
            (
                "scenarios",
                sample_chaos_doc().get("scenarios").unwrap().clone(),
            ),
            (
                "overhead",
                sample_chaos_doc().get("overhead").unwrap().clone(),
            ),
        ]);
        assert!(CHAOS
            .validate(&missing_summary)
            .unwrap_err()
            .contains("summary"));
    }

    fn sample_outofcore_algo() -> Json {
        Json::obj([
            ("algo", Json::Str("pagerank-delta".into())),
            ("wall_secs", Json::Num(2.0)),
            ("events_processed", Json::Num(4000.0)),
            ("events_per_sec", Json::Num(2000.0)),
            ("edges_read", Json::Num(8000.0)),
            ("rowptr_bytes", Json::Num(48000.0)),
            ("edge_bytes", Json::Num(32000.0)),
            ("bytes_moved", Json::Num(80000.0)),
            ("bytes_per_edge", Json::Num(10.0)),
            ("turbo_wall_secs", Json::Num(0.5)),
            ("turbo_events_per_sec", Json::Num(8000.0)),
            ("turbo_max_abs_diff", Json::Num(0.0)),
            ("turbo_ok", Json::Bool(true)),
        ])
    }

    fn sample_outofcore_doc(budget_mb: f64) -> Json {
        Json::obj([
            ("schema", Json::Str(OUTOFCORE.tag.into())),
            ("seed", Json::Num(42.0)),
            ("edge_factor", Json::Num(8.0)),
            ("budget_mb", Json::Num(budget_mb)),
            (
                "entries",
                Json::Arr(vec![Json::obj([
                    ("log2_vertices", Json::Num(20.0)),
                    ("vertices", Json::Num(1048576.0)),
                    ("edges", Json::Num(8388608.0)),
                    ("weighted", Json::Bool(true)),
                    ("container_bytes", Json::Num(75497728.0)),
                    ("build_secs", Json::Num(3.5)),
                    ("kernel_mapped", Json::Bool(true)),
                    ("resident_graph_bytes", Json::Num(142606344.0)),
                    ("mapped_state_bytes", Json::Num(8912896.0)),
                    ("algos", Json::Arr(vec![sample_outofcore_algo()])),
                ])]),
            ),
        ])
    }

    fn with_algo_field(mut doc: Json, key: &str, value: Json) -> Json {
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "entries" {
                    if let Json::Arr(entries) = v {
                        if let Json::Obj(fields) = &mut entries[0] {
                            for (fk, fv) in fields.iter_mut() {
                                if fk == "algos" {
                                    if let Json::Arr(algos) = fv {
                                        if let Json::Obj(af) = &mut algos[0] {
                                            for (ak, av) in af.iter_mut() {
                                                if ak == key {
                                                    *av = value.clone();
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    fn with_entry_field(mut doc: Json, key: &str, value: Json) -> Json {
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "entries" {
                    if let Json::Arr(entries) = v {
                        if let Json::Obj(fields) = &mut entries[0] {
                            for (fk, fv) in fields.iter_mut() {
                                if fk == key {
                                    *fv = value.clone();
                                }
                            }
                        }
                    }
                }
            }
        }
        doc
    }

    #[test]
    fn outofcore_validator_accepts_complete_documents() {
        // No budget, and a budget the resident footprint exceeds while the
        // mapped working state fits.
        OUTOFCORE.validate(&sample_outofcore_doc(0.0)).unwrap();
        OUTOFCORE.validate(&sample_outofcore_doc(64.0)).unwrap();
    }

    #[test]
    fn outofcore_validator_rejects_inconsistent_documents() {
        let wrong_schema = Json::obj([
            ("schema", Json::Str("other/v9".into())),
            ("seed", Json::Num(1.0)),
        ]);
        assert!(OUTOFCORE
            .validate(&wrong_schema)
            .unwrap_err()
            .contains("schema"));

        // Traffic accounting must balance.
        let err = OUTOFCORE
            .validate(&with_algo_field(
                sample_outofcore_doc(0.0),
                "bytes_moved",
                Json::Num(80001.0),
            ))
            .unwrap_err();
        assert!(err.contains("rowptr_bytes + edge_bytes"), "{err}");

        // bytes_per_edge must be bytes_moved / edges_read.
        let err = OUTOFCORE
            .validate(&with_algo_field(
                sample_outofcore_doc(0.0),
                "bytes_per_edge",
                Json::Num(11.0),
            ))
            .unwrap_err();
        assert!(err.contains("bytes_moved / edges_read"), "{err}");

        // A turbo divergence must fail the document.
        let err = OUTOFCORE
            .validate(&with_algo_field(
                sample_outofcore_doc(0.0),
                "turbo_ok",
                Json::Bool(false),
            ))
            .unwrap_err();
        assert!(err.contains("turbo_ok is false"), "{err}");

        // Under a budget, the mapped working state must fit...
        let err = OUTOFCORE
            .validate(&with_entry_field(
                sample_outofcore_doc(64.0),
                "mapped_state_bytes",
                Json::Num(128.0 * 1024.0 * 1024.0),
            ))
            .unwrap_err();
        assert!(err.contains("exceeds the 64 MiB budget"), "{err}");

        // ...and the budget must actually exclude the resident path.
        let err = OUTOFCORE
            .validate(&sample_outofcore_doc(1024.0))
            .unwrap_err();
        assert!(err.contains("demonstrates nothing"), "{err}");

        // An entry that measured no algorithm is a dead entry.
        let err = OUTOFCORE
            .validate(&with_entry_field(
                sample_outofcore_doc(0.0),
                "algos",
                Json::Arr(vec![]),
            ))
            .unwrap_err();
        assert!(err.contains("\"algos\" is empty"), "{err}");
    }

    #[test]
    fn a_rerun_matches_its_record_whatever_its_wall_times() {
        let record = sample_outofcore_doc(64.0);
        let slower = with_entry_field(
            with_algo_field(record.clone(), "wall_secs", Json::Num(9.0)),
            "build_secs",
            Json::Num(7.0),
        );
        let notes = compare_against(&slower, &record).unwrap();
        assert!(
            notes.contains(&"log2_vertices 20: build_secs 7 (committed 3.5)".to_string()),
            "{notes:?}"
        );
        assert!(notes
            .iter()
            .any(|n| n.starts_with("log2_vertices 20 / algo \"pagerank-delta\": wall_secs 9")));

        let serve = sample_serve_doc();
        let drifted = with_run_field(serve.clone(), "path_warm_starts", Json::Num(13.0));
        compare_against(&drifted, &serve).unwrap();
    }

    #[test]
    fn a_moved_count_is_named_with_its_entry_and_field() {
        let record = sample_outofcore_doc(0.0);
        let err = compare_against(
            &with_algo_field(record.clone(), "edges_read", Json::Num(8001.0)),
            &record,
        )
        .unwrap_err();
        assert_eq!(
            err,
            "log2_vertices 20 / algo \"pagerank-delta\": edges_read is 8001 here \
             but 8000 in the committed record"
        );
        for key in exact_keys(table_at(&OUTOFCORE.table, &["entries", "algos"])) {
            let moved = with_algo_field(record.clone(), key, Json::Num(0.25));
            let err = compare_against(&moved, &record).unwrap_err();
            assert!(err.contains(&format!(": {key} is 0.25 here")), "{err}");
        }
        let err = compare_against(
            &with_entry_field(record.clone(), "container_bytes", Json::Num(1.0)),
            &record,
        )
        .unwrap_err();
        assert!(
            err.starts_with("log2_vertices 20: container_bytes is 1 here"),
            "{err}"
        );

        // Every mismatch is listed, not only the first.
        let serve = sample_serve_doc();
        let err = compare_against(
            &with_run_field(serve.clone(), "warm_starts", Json::Num(6.0)),
            &serve,
        )
        .unwrap_err();
        assert_eq!(
            err.lines().collect::<Vec<_>>(),
            [
                "executors 1: warm_starts is 6 here but 7 in the committed record",
                "executors 4: warm_starts is 6 here but 7 in the committed record",
            ]
        );
        let err = compare_against(
            &with_serve_field(serve.clone(), "seed", Json::Num(7.0)),
            &serve,
        )
        .unwrap_err();
        assert_eq!(err, "record: seed is 7 here but 42 in the committed record");
    }

    #[test]
    fn rows_pair_by_their_id() {
        let record = sample_outofcore_doc(0.0);
        let at_22 = with_entry_field(record.clone(), "log2_vertices", Json::Num(22.0));
        // A committed scale the rerun skipped is noted; a fresh one the
        // record lacks is a mismatch.
        let notes = compare_against(
            &Json::obj([
                ("schema", Json::Str(OUTOFCORE.tag.into())),
                ("seed", Json::Num(42.0)),
                ("edge_factor", Json::Num(8.0)),
                ("entries", Json::Arr(vec![])),
            ]),
            &record,
        )
        .unwrap();
        assert_eq!(notes, ["log2_vertices 20: not run here, skipped"]);
        let err = compare_against(&at_22, &record).unwrap_err();
        assert!(
            err.starts_with("log2_vertices 22: not in the committed record"),
            "{err}"
        );
        // A committed algorithm the fresh entry lacks is a mismatch.
        let renamed = with_algo_field(record.clone(), "algo", Json::Str("sssp".into()));
        let err = compare_against(&renamed, &record).unwrap_err();
        assert!(
            err.ends_with(
                "log2_vertices 20 / algo \"pagerank-delta\": in the committed record only"
            ),
            "{err}"
        );
    }

    #[test]
    fn records_of_different_kinds_are_not_compared() {
        let err = compare_against(&sample_serve_doc(), &sample_outofcore_doc(0.0)).unwrap_err();
        assert!(err.contains("schema is"), "{err}");
        let chaos = sample_chaos_doc();
        let err = compare_against(&chaos, &chaos).unwrap_err();
        assert!(err.contains("no run-invariant fields"), "{err}");
    }

    /// The keys `table` holds exactly under `--against`.
    fn exact_keys(table: &Table) -> Vec<&'static str> {
        let exact = table.keys().filter(|(_, _, role)| *role == Exact);
        exact.map(|(key, _, _)| key).collect()
    }

    /// The table `path` leads to from `table`.
    fn table_at(table: &'static Table, path: &[&str]) -> &'static Table {
        path.iter()
            .fold(table, |t, step| match t.keys().find(|k| k.0 == *step) {
                Some((_, Obj(t), _)) => t,
                Some((_, Rows(r), _)) => &r.table,
                _ => panic!("{step} holds no table"),
            })
    }

    /// Every object `table` describes, nested ones included: the keys that
    /// lead to it from the document (a row table's first row), the prefix
    /// its errors carry, and its table.
    type Level = (Vec<&'static str>, String, &'static Table);
    fn levels(
        table: &'static Table,
        path: Vec<&'static str>,
        prefix: String,
        out: &mut Vec<Level>,
    ) {
        for (key, kind, _) in table.keys() {
            let below = [path.clone(), vec![key]].concat();
            match kind {
                Obj(t) => levels(t, below, format!("{prefix}{key}: "), out),
                Rows(r) => levels(&r.table, below, format!("{prefix}{} 0: ", r.label), out),
                _ => {}
            }
        }
        out.push((path, prefix, table));
    }

    /// The object `path` leads to (through the first row of an array).
    fn object_at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
        let mut at = doc;
        for key in path {
            let Json::Obj(pairs) = at else {
                panic!("{path:?} crosses a non-object")
            };
            at = match &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1 {
                Json::Arr(rows) => &mut rows[0],
                value => value,
            };
        }
        match at {
            Json::Obj(pairs) => pairs,
            _ => panic!("no object at {path:?}"),
        }
    }

    #[test]
    fn committed_records_hold_to_their_tables() {
        let records = [
            (&CHAOS, include_str!("../../../BENCH_chaos.json")),
            (&SERVE, include_str!("../../../BENCH_serve.json")),
            (&OUTOFCORE, include_str!("../../../BENCH_outofcore.json")),
        ];
        for (schema, text) in records {
            let record = parse(text).unwrap();
            schema.validate(&record).unwrap();
            let against = compare_against(&record, &record);
            assert_eq!(
                against.is_ok(),
                schema.compares(),
                "{}: {against:?}",
                schema.tag
            );
            let mut all = Vec::new();
            levels(&schema.table, Vec::new(), String::new(), &mut all);
            for (path, prefix, table) in all {
                let what = format!("{} at {path:?}", schema.tag);
                for (key, _, role) in table.keys() {
                    // Removing a listed key fails, naming it.
                    let mut doc = record.clone();
                    object_at(&mut doc, &path).retain(|(k, _)| k != key);
                    let err = schema.validate(&doc).unwrap_err();
                    assert!(
                        err.starts_with(&prefix) && err.contains(key),
                        "{what}: {err}"
                    );
                    if role != Exact {
                        continue;
                    }
                    // Moving an exact key is a mismatch under --against.
                    let mut fresh = record.clone();
                    let pair = object_at(&mut fresh, &path)
                        .iter_mut()
                        .find(|(k, _)| k == key);
                    let value = &mut pair.unwrap().1;
                    *value = Json::Num(value.as_f64().unwrap() + 1.0);
                    let moved = format!(": {key} is {} here", value.render());
                    let err = compare_against(&fresh, &record).unwrap_err();
                    assert!(err.contains(&moved), "{what}: {err}");
                }
                // A key the table does not list is refused, with its row.
                let mut doc = record.clone();
                object_at(&mut doc, &path).push(("unlisted".into(), Json::Num(0.0)));
                let err = schema.validate(&doc).unwrap_err();
                assert_eq!(err, format!("{prefix}unlisted key \"unlisted\""), "{what}");
            }
        }
    }

    #[test]
    fn chaos_totals_and_per_event_bytes_are_held_to_what_they_sum() {
        let set = |doc: &mut Json, path: &[&str], key: &str, value: f64| {
            let pair = object_at(doc, path).iter_mut().find(|(k, _)| k == key);
            pair.unwrap().1 = Json::Num(value);
        };
        for (key, sum) in [
            ("detections", "detected"),
            ("wasted_events_total", "wasted_events"),
            ("checkpoint_bytes_total", "checkpoint_bytes"),
        ] {
            let mut doc = sample_chaos_doc();
            set(&mut doc, &["summary"], key, 99.0);
            let err = CHAOS.validate(&doc).unwrap_err();
            assert!(
                err.starts_with(&format!("summary.{key} is 99 but the scenarios' {sum}")),
                "{err}"
            );
        }
        let mut doc = sample_chaos_doc();
        set(&mut doc, &["overhead"], "checkpoint_bytes_per_event", 53.2);
        let err = CHAOS.validate(&doc).unwrap_err();
        assert_eq!(
            err,
            "overhead 0: checkpoint_bytes_per_event is 53.2 but \
             checkpoint_bytes / events_processed is 53.12"
        );
    }
}
