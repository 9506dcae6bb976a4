//! JSON for machine-readable bench output: the `BENCH_*.json` files the
//! bench binaries emit and the `bench_check` schema validator reads back.
//!
//! The workspace builds hermetically offline (no serde). The value type,
//! its writer (two-space indent, keys in insertion order, so reruns diff
//! cleanly) and its strict recursive-descent parser are the repo
//! benchmark's (`benchmark/src/json.rs`), compiled in by path: one JSON
//! implementation in the repository, owned by the package that must not
//! depend on this one. This module adds the two checks a bench record
//! wants on top — [`render`] refuses a non-finite number instead of writing
//! `null`, [`parse`] refuses a duplicate key instead of letting
//! [`Json::get`] shadow it — and the schema validators.

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

/// Schema tag `validate_chaos` requires.
pub const CHAOS_SCHEMA: &str = "gp-bench/chaos/v1";

/// Schema tag `validate_serve` requires.
pub const SERVE_SCHEMA: &str = "gp-bench/serve/v3";

/// Schema tag `validate_outofcore` requires.
pub const OUTOFCORE_SCHEMA: &str = "gp-bench/outofcore/v2";

/// Sign rule a numeric field is held to.
#[derive(Clone, Copy)]
enum Bound {
    Positive,
    NonNegative,
    Any,
}

/// The number at `key`, held to `bound`.
fn num(obj: &Json, key: &str, bound: Bound) -> Result<f64, String> {
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

/// Holds every one of `keys` to `bound`, in order.
fn nums(obj: &Json, keys: &[&str], bound: Bound) -> Result<(), String> {
    keys.iter()
        .try_for_each(|key| num(obj, key, bound).map(drop))
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

/// Runs `check` over `items` in order; an error is prefixed with the row it
/// came from (`<label> <index>: `).
fn each(
    items: &[Json],
    label: &str,
    mut check: impl FnMut(&Json) -> Result<(), String>,
) -> Result<(), String> {
    items
        .iter()
        .enumerate()
        .try_for_each(|(i, item)| check(item).map_err(|e| format!("{label} {i}: {e}")))
}

/// Holds the document's `schema` tag to `want`.
fn schema_is(doc: &Json, want: &str) -> Result<(), String> {
    let schema = text(doc, "schema")?;
    if schema != want {
        return Err(format!("schema is {schema:?}, expected {want:?}"));
    }
    Ok(())
}

/// Validates a `BENCH_serve.json` document: schema tag, positive graph
/// and traffic fields, and a non-empty `runs` sweep (one
/// entry per executor count). Each run must carry a positive `executors`
/// count, positive traffic totals, a non-empty per-class latency table
/// with ordered p50 ≤ p99 ≤ p999 quantiles that accounts for every served
/// query, and the golden cross-check record (some samples verified, zero
/// failures — a serve bench that stopped checking its answers, or whose
/// answers diverged from the golden recompute, fails here).
///
/// # Errors
///
/// Returns a readable description of the first violated rule.
pub fn validate_serve(doc: &Json) -> Result<(), String> {
    schema_is(doc, SERVE_SCHEMA)?;
    num(doc, "seed", Bound::Any)?;
    nums(
        doc,
        &["vertices", "edges", "tenants", "clients"],
        Bound::Positive,
    )?;
    let runs = rows(doc, "runs", "the sweep ran no executor configuration")?;
    each(runs, "run", validate_serve_run)
}

/// Validates one executor-sweep entry of a serve document.
fn validate_serve_run(run: &Json) -> Result<(), String> {
    nums(
        run,
        &["executors", "queries_total", "wall_secs", "throughput_qps"],
        Bound::Positive,
    )?;
    nums(
        run,
        &[
            "rejected",
            "degraded",
            "epochs_published",
            "update_batches",
            "warm_starts",
            "cold_runs",
            "fused_runs",
            "path_cache_hits",
            "path_warm_starts",
            "verified_samples",
            "verify_failures",
        ],
        Bound::NonNegative,
    )?;
    if num(run, "verified_samples", Bound::Any)? < 1.0 {
        return Err("verified_samples is 0 — no golden cross-checks ran".into());
    }
    let failures = num(run, "verify_failures", Bound::Any)?;
    if failures != 0.0 {
        return Err(format!(
            "verify_failures is {failures} — sampled answers diverged from the golden recompute"
        ));
    }

    let classes = rows(run, "classes", "the bench served no query class")?;
    let mut served_sum = 0.0;
    each(classes, "class", |class| {
        text(class, "class")?;
        served_sum += num(class, "served", Bound::NonNegative)?;
        num(class, "mean_us", Bound::NonNegative)?;
        let p50 = num(class, "p50_us", Bound::NonNegative)?;
        let p99 = num(class, "p99_us", Bound::NonNegative)?;
        let p999 = num(class, "p999_us", Bound::NonNegative)?;
        num(class, "max_us", Bound::NonNegative)?;
        if p50 > p99 || p99 > p999 {
            return Err(format!(
                "quantiles out of order: p50 {p50} p99 {p99} p999 {p999}"
            ));
        }
        Ok(())
    })?;
    let total = num(run, "queries_total", Bound::Any)?;
    if served_sum != total {
        return Err(format!(
            "per-class served totals sum to {served_sum} but queries_total is {total}"
        ));
    }
    Ok(())
}

/// Validates a `BENCH_chaos.json` document: schema tag, non-empty
/// scenario list with the fault-injection campaign's invariants (every
/// scenario detected its fault and recovered to the reference — the
/// "never silently wrong" contract), per-algorithm checkpoint-overhead
/// records, and the MTTR-style summary block.
///
/// # Errors
///
/// Returns a readable description of the first violated rule.
pub fn validate_chaos(doc: &Json) -> Result<(), String> {
    schema_is(doc, CHAOS_SCHEMA)?;
    num(doc, "seed", Bound::Any)?;

    let scenarios = rows(doc, "scenarios", "the campaign ran nothing")?;
    each(scenarios, "scenario", |s| {
        for key in ["fault", "algo", "mode", "backend", "detector", "recovery"] {
            text(s, key)?;
        }
        nums(
            s,
            &[
                "detected",
                "detection_latency_epochs",
                "rollbacks",
                "wasted_events",
                "checkpoint_bytes",
                "max_abs_diff",
            ],
            Bound::NonNegative,
        )?;
        if num(s, "detected", Bound::Any)? < 1.0 {
            return Err("fault was never detected (detected < 1)".into());
        }
        if !flag(s, "result_ok")? {
            return Err("result_ok is false — the recovered result diverged".into());
        }
        Ok(())
    })?;

    let overhead = rows(doc, "overhead", "no fault-free baseline was measured")?;
    each(overhead, "overhead", |o| {
        text(o, "algo")?;
        nums(
            o,
            &[
                "events_processed",
                "epochs",
                "checkpoints",
                "checkpoint_words",
                "checkpoint_bytes",
            ],
            Bound::Positive,
        )?;
        if o.get("bitexact") != Some(&Json::Bool(true)) {
            return Err("bitexact is not true — the fault-free chaos run diverged".into());
        }
        Ok(())
    })?;

    let summary = doc.get("summary").ok_or("missing object key \"summary\"")?;
    nums(
        summary,
        &[
            "scenarios",
            "detections",
            "mean_detection_latency_epochs",
            "mean_rollbacks_per_recovery",
            "wasted_events_total",
            "checkpoint_bytes_total",
        ],
        Bound::NonNegative,
    )
    .map_err(|e| format!("summary: {e}"))?;
    let n = num(summary, "scenarios", Bound::Any)?;
    if n != scenarios.len() as f64 {
        return Err(format!(
            "summary.scenarios is {n} but {} scenarios are listed",
            scenarios.len()
        ));
    }
    Ok(())
}

/// Validates a `BENCH_outofcore.json` document: schema tag, positive
/// generator parameters, and a non-empty per-scale entry list. Every
/// entry must carry the container geometry (positive vertex, edge, and
/// byte counts), the analytic fully-resident footprint next to the
/// measured mapped working state, and a non-empty per-algorithm table
/// whose traffic accounting is internally consistent
/// (`bytes_moved = rowptr_bytes + edge_bytes`,
/// `bytes_per_edge = bytes_moved / edges_read`) with positive event
/// throughput on both the golden engine and turbo, and turbo answers
/// within the algorithm's tolerance of golden (`turbo_ok`). When a
/// resident-memory budget was enforced (`budget_mb > 0`), every entry's
/// mapped working state must fit under it and at least one entry's
/// resident footprint must exceed it — otherwise the run demonstrated
/// nothing about out-of-core execution.
///
/// # Errors
///
/// Returns a readable description of the first violated rule.
pub fn validate_outofcore(doc: &Json) -> Result<(), String> {
    schema_is(doc, OUTOFCORE_SCHEMA)?;
    num(doc, "seed", Bound::Any)?;
    num(doc, "edge_factor", Bound::Positive)?;
    let budget_mb = num(doc, "budget_mb", Bound::NonNegative)?;
    let budget_bytes = budget_mb * (1u64 << 20) as f64;

    let entries = rows(doc, "entries", "the bench measured no scale")?;
    let mut resident_over_budget = false;
    each(entries, "entry", |entry| {
        nums(
            entry,
            &[
                "log2_vertices",
                "vertices",
                "edges",
                "container_bytes",
                "resident_graph_bytes",
                "mapped_state_bytes",
            ],
            Bound::Positive,
        )?;
        num(entry, "build_secs", Bound::NonNegative)?;
        flag(entry, "weighted")?;
        flag(entry, "kernel_mapped")?;
        if budget_mb > 0.0 {
            let mapped_state = num(entry, "mapped_state_bytes", Bound::Any)?;
            if mapped_state > budget_bytes {
                return Err(format!(
                    "mapped_state_bytes {mapped_state} exceeds the {budget_mb} MiB budget \
                     — the out-of-core path did not fit"
                ));
            }
            if num(entry, "resident_graph_bytes", Bound::Any)? > budget_bytes {
                resident_over_budget = true;
            }
        }
        let algos = rows(entry, "algos", "no algorithm was measured")?;
        each(algos, "algo", validate_outofcore_algo)
    })?;
    if budget_mb > 0.0 && !resident_over_budget {
        return Err(format!(
            "budget_mb is {budget_mb} but no entry's resident_graph_bytes exceeds it \
             — the budget demonstrates nothing"
        ));
    }
    Ok(())
}

/// Validates one per-algorithm row of an out-of-core entry.
fn validate_outofcore_algo(a: &Json) -> Result<(), String> {
    text(a, "algo")?;
    nums(
        a,
        &[
            "events_processed",
            "events_per_sec",
            "edges_read",
            "bytes_moved",
            "bytes_per_edge",
            "turbo_events_per_sec",
        ],
        Bound::Positive,
    )?;
    nums(
        a,
        &[
            "wall_secs",
            "rowptr_bytes",
            "edge_bytes",
            "turbo_wall_secs",
            "turbo_max_abs_diff",
        ],
        Bound::NonNegative,
    )?;
    let moved = num(a, "bytes_moved", Bound::Any)?;
    let parts = num(a, "rowptr_bytes", Bound::Any)? + num(a, "edge_bytes", Bound::Any)?;
    if moved != parts {
        return Err(format!(
            "bytes_moved is {moved} but rowptr_bytes + edge_bytes is {parts}"
        ));
    }
    let per_edge = num(a, "bytes_per_edge", Bound::Any)?;
    let expect = moved / num(a, "edges_read", Bound::Any)?;
    if (per_edge - expect).abs() > 1e-9 * expect.max(1.0) {
        return Err(format!(
            "bytes_per_edge is {per_edge} but bytes_moved / edges_read is {expect}"
        ));
    }
    if !flag(a, "turbo_ok")? {
        return Err(
            "turbo_ok is false — turbo over the mapping diverged from golden beyond tolerance"
                .into(),
        );
    }
    Ok(())
}

/// Per out-of-core entry, the fields a rerun reproduces exactly.
const OUTOFCORE_ENTRY_EXACT: [&str; 2] = ["edges", "container_bytes"];

/// Per out-of-core algorithm row, the fields a rerun reproduces exactly.
const OUTOFCORE_ALGO_EXACT: [&str; 6] = [
    "events_processed",
    "edges_read",
    "rowptr_bytes",
    "edge_bytes",
    "bytes_moved",
    "turbo_max_abs_diff",
];

/// Per serve run, the fields a rerun reproduces exactly. `path_warm_starts`
/// is not one: it moves by a few between runs of one binary.
const SERVE_RUN_EXACT: [&str; 4] = ["queries_total", "cold_runs", "warm_starts", "fused_runs"];

/// Holds a fresh bench record to a committed one on the fields a rerun of
/// an unchanged program reproduces exactly, whatever the host:
///
/// * out-of-core: the `seed` and `edge_factor`; per entry, matched by
///   `log2_vertices`, `edges` and `container_bytes`; per algorithm, matched
///   by `algo`, every count (`events_processed`, `edges_read`,
///   `rowptr_bytes`, `edge_bytes`, `bytes_moved`) and `turbo_max_abs_diff`;
/// * serve: the `seed`, `vertices` and `edges`; per run, matched by
///   `executors`, `queries_total`, `cold_runs`, `warm_starts` and
///   `fused_runs`.
///
/// A committed entry the fresh record did not run is skipped; a fresh
/// entry or algorithm the committed record lacks, or a committed
/// algorithm the fresh entry lacks, is a mismatch.
///
/// Returns one line per wall-clock field, fresh beside committed: those
/// are reported, not held to anything.
///
/// # Errors
///
/// Returns every mismatch, one per line, each naming its entry and field;
/// or one line when the records' schemas differ or have no such fields.
pub fn compare_against(fresh: &Json, committed: &Json) -> Result<Vec<String>, String> {
    let schema = text(fresh, "schema")?;
    schema_is(committed, schema)?;
    let mut cmp = Comparison::default();
    match schema {
        OUTOFCORE_SCHEMA => {
            cmp.exact("record", fresh, committed, &["seed", "edge_factor"]);
            cmp.rows(
                "",
                fresh,
                committed,
                ("entries", "log2_vertices"),
                false,
                |cmp, at, f, c| {
                    cmp.exact(at, f, c, &OUTOFCORE_ENTRY_EXACT);
                    cmp.wall(at, f, c, &["build_secs"]);
                    cmp.rows(at, f, c, ("algos", "algo"), true, |cmp, at, f, c| {
                        cmp.exact(at, f, c, &OUTOFCORE_ALGO_EXACT);
                        cmp.wall(at, f, c, &["wall_secs", "turbo_wall_secs"]);
                    });
                },
            );
        }
        SERVE_SCHEMA => {
            cmp.exact("record", fresh, committed, &["seed", "vertices", "edges"]);
            cmp.rows(
                "",
                fresh,
                committed,
                ("runs", "executors"),
                false,
                |cmp, at, f, c| {
                    cmp.exact(at, f, c, &SERVE_RUN_EXACT);
                    cmp.wall(at, f, c, &["wall_secs"]);
                },
            );
        }
        other => {
            return Err(format!(
                "{other:?} records have no run-invariant fields to compare"
            ))
        }
    }
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

/// The array at `key`, or none.
fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

impl Comparison {
    /// Requires each of `keys` to be equal in `fresh` and `committed`.
    fn exact(&mut self, at: &str, fresh: &Json, committed: &Json, keys: &[&str]) {
        for key in keys {
            let (f, c) = (fresh.get(key), committed.get(key));
            if f != c {
                self.mismatches.push(format!(
                    "{at}: {key} is {} here but {} in the committed record",
                    shown(f),
                    shown(c)
                ));
            }
        }
    }

    /// Notes each of `keys` side by side.
    fn wall(&mut self, at: &str, fresh: &Json, committed: &Json, keys: &[&str]) {
        for key in keys {
            let (f, c) = (shown(fresh.get(key)), shown(committed.get(key)));
            self.notes.push(format!("{at}: {key} {f} (committed {c})"));
        }
    }

    /// Pairs the rows of the `array` arrays by their `id` field and runs
    /// `check` on each pair. A fresh row with no committed twin is a
    /// mismatch; a committed row with no fresh twin is one only when
    /// `all` is set, and otherwise a note.
    fn rows(
        &mut self,
        at: &str,
        fresh: &Json,
        committed: &Json,
        (array, id): (&str, &str),
        all: bool,
        mut check: impl FnMut(&mut Self, &str, &Json, &Json),
    ) {
        let (fresh, committed) = (items(fresh, array), items(committed, array));
        let label = |row: &Json| {
            format!(
                "{at}{}{id} {}",
                if at.is_empty() { "" } else { " / " },
                shown(row.get(id))
            )
        };
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
            if all {
                self.mismatches
                    .push(format!("{}: in the committed record only", label(c)));
            } else {
                self.notes
                    .push(format!("{}: not run here, skipped", label(c)));
            }
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
            ("schema", Json::Str(CHAOS_SCHEMA.into())),
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
        validate_chaos(&sample_chaos_doc()).unwrap();
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
            ("schema", Json::Str(SERVE_SCHEMA.into())),
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
        validate_serve(&sample_serve_doc()).unwrap();
    }

    #[test]
    fn serve_validator_rejects_malformed_documents() {
        let err = validate_serve(&with_serve_field(
            sample_serve_doc(),
            "schema",
            Json::Str("other/v9".into()),
        ))
        .unwrap_err();
        assert!(err.contains("schema"), "{err}");

        let err = validate_serve(&with_serve_field(
            sample_serve_doc(),
            "clients",
            Json::Num(0.0),
        ))
        .unwrap_err();
        assert!(err.contains("clients must be positive"), "{err}");

        let err = validate_serve(&with_serve_field(
            sample_serve_doc(),
            "runs",
            Json::Arr(vec![]),
        ))
        .unwrap_err();
        assert!(err.contains("\"runs\" is empty"), "{err}");

        let err = validate_serve(&with_run_field(
            sample_serve_doc(),
            "executors",
            Json::Num(0.0),
        ))
        .unwrap_err();
        assert!(err.contains("executors must be positive"), "{err}");

        let err = validate_serve(&with_run_field(
            sample_serve_doc(),
            "verified_samples",
            Json::Num(0.0),
        ))
        .unwrap_err();
        assert!(err.contains("no golden cross-checks ran"), "{err}");

        let err = validate_serve(&with_run_field(
            sample_serve_doc(),
            "verify_failures",
            Json::Num(2.0),
        ))
        .unwrap_err();
        assert!(err.contains("diverged from the golden recompute"), "{err}");

        let err = validate_serve(&with_run_field(
            sample_serve_doc(),
            "throughput_qps",
            Json::Num(0.0),
        ))
        .unwrap_err();
        assert!(err.contains("throughput_qps must be positive"), "{err}");

        let err = validate_serve(&with_run_field(
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
        let err = validate_serve(&doc).unwrap_err();
        assert!(
            err.contains("run 1") && err.contains("path_warm_starts"),
            "{err}"
        );

        // Served totals must reconcile with queries_total.
        let err = validate_serve(&with_run_field(
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
        let err = validate_serve(&with_run_field(
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
        let err = validate_serve(&with_run_field(
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
        let err = validate_chaos(&doc).unwrap_err();
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
        let err = validate_chaos(&doc).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        let wrong_schema = Json::obj([
            ("schema", Json::Str("other/v9".into())),
            ("seed", Json::Num(1.0)),
        ]);
        assert!(validate_chaos(&wrong_schema)
            .unwrap_err()
            .contains("schema"));

        let missing_summary = Json::obj([
            ("schema", Json::Str(CHAOS_SCHEMA.into())),
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
        assert!(validate_chaos(&missing_summary)
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
            ("schema", Json::Str(OUTOFCORE_SCHEMA.into())),
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
        validate_outofcore(&sample_outofcore_doc(0.0)).unwrap();
        validate_outofcore(&sample_outofcore_doc(64.0)).unwrap();
    }

    #[test]
    fn outofcore_validator_rejects_inconsistent_documents() {
        let wrong_schema = Json::obj([
            ("schema", Json::Str("other/v9".into())),
            ("seed", Json::Num(1.0)),
        ]);
        assert!(validate_outofcore(&wrong_schema)
            .unwrap_err()
            .contains("schema"));

        // Traffic accounting must balance.
        let err = validate_outofcore(&with_algo_field(
            sample_outofcore_doc(0.0),
            "bytes_moved",
            Json::Num(80001.0),
        ))
        .unwrap_err();
        assert!(err.contains("rowptr_bytes + edge_bytes"), "{err}");

        // bytes_per_edge must be bytes_moved / edges_read.
        let err = validate_outofcore(&with_algo_field(
            sample_outofcore_doc(0.0),
            "bytes_per_edge",
            Json::Num(11.0),
        ))
        .unwrap_err();
        assert!(err.contains("bytes_moved / edges_read"), "{err}");

        // A turbo divergence must fail the document.
        let err = validate_outofcore(&with_algo_field(
            sample_outofcore_doc(0.0),
            "turbo_ok",
            Json::Bool(false),
        ))
        .unwrap_err();
        assert!(err.contains("turbo_ok is false"), "{err}");

        // Under a budget, the mapped working state must fit...
        let err = validate_outofcore(&with_entry_field(
            sample_outofcore_doc(64.0),
            "mapped_state_bytes",
            Json::Num(128.0 * 1024.0 * 1024.0),
        ))
        .unwrap_err();
        assert!(err.contains("exceeds the 64 MiB budget"), "{err}");

        // ...and the budget must actually exclude the resident path.
        let err = validate_outofcore(&sample_outofcore_doc(1024.0)).unwrap_err();
        assert!(err.contains("demonstrates nothing"), "{err}");

        // An entry that measured no algorithm is a dead entry.
        let err = validate_outofcore(&with_entry_field(
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
        for key in OUTOFCORE_ALGO_EXACT {
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
                ("schema", Json::Str(OUTOFCORE_SCHEMA.into())),
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
}
