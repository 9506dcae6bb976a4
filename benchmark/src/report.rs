//! Reading results files back: `--check`, `--compare`, `--aa`.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::spec;
use crate::stats::{median, quartiles};

/// Marks the child's line that carries pass counts and quartiles.
pub const DETAIL_PREFIX: &str = "#detail";

/// A child's result (its last line) with its detail line folded in.
pub fn parse_child(stdout: &str) -> Option<Json> {
    let Json::Obj(mut entry) = Json::parse(stdout.lines().last()?).ok()? else {
        return None;
    };
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))?;
    entry.push(("detail".into(), Json::parse(detail).ok()?));
    Some(Json::Obj(entry))
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn is_traced(doc: &Json) -> bool {
    doc.get("trace").and_then(Json::as_f64) == Some(1.0)
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(name)
}

fn value(entry: &Json, metric: &str) -> Option<f64> {
    entry.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// What is wrong with a results document; empty when it holds exactly the
/// declared workloads and metrics and no operation failed.
pub fn problems(doc: &Json) -> Vec<String> {
    let mut out = Vec::new();
    let declared: Vec<(String, &str)> = if is_traced(doc) {
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let present = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    for (name, _) in present {
        if !spec::WORKLOADS.iter().any(|w| w.name == name) {
            out.push(format!("{name}: not a declared workload"));
        }
    }
    for w in &spec::WORKLOADS {
        let Some(entry) = workload(doc, w.name) else {
            out.push(format!("{}: missing", w.name));
            continue;
        };
        let failed = entry.get("failed").and_then(Json::as_f64);
        let attempted = entry.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        if failed != Some(0.0) || entry.get("correct").and_then(Json::as_bool) != Some(true) {
            out.push(format!(
                "{}: {} of {attempted} operations failed",
                w.name,
                failed.unwrap_or(f64::NAN)
            ));
        }
        if attempted < 1.0 {
            out.push(format!("{}: no operation attempted", w.name));
        }
        let metrics = entry
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default();
        for (name, _) in metrics {
            if !declared.iter().any(|(d, _)| d == name) {
                out.push(format!("{}: {name} is not a declared metric", w.name));
            }
        }
        for (name, unit) in &declared {
            match entry.get("metrics").and_then(|m| m.get(name)) {
                None => out.push(format!("{}: {name} missing", w.name)),
                Some(m) => {
                    if m.get("value").and_then(Json::as_f64).is_none() {
                        out.push(format!("{}: {name} has no numeric value", w.name));
                    }
                    if m.get("unit").and_then(Json::as_str) != Some(unit) {
                        out.push(format!("{}: {name} is not in {unit}", w.name));
                    }
                }
            }
        }
    }
    out
}

pub fn check(path: &Path) -> Result<bool, String> {
    let found = problems(&load(path)?);
    for p in &found {
        eprintln!("check: {p}");
    }
    println!(
        "check {}: {}",
        path.display(),
        if found.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(found.is_empty())
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Unchanged,
    /// Within the bound, but one side's own spread exceeds it, so "no
    /// worse" is not shown.
    Unresolved,
    Worse,
}

/// Judges a lower-is-better cell: `b` against `a`, each with the distance
/// between its quartiles as a share of its median.
pub fn verdict(a: f64, b: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    let change = (b - a) / a;
    if change > bound {
        Verdict::Worse
    } else if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The distance between the quartiles of the samples behind `metric`
/// (set-up repetitions, passes) as a share of `value`.
fn recorded_spread(entry: &Json, metric: &str, value: f64) -> f64 {
    let samples = match metric {
        "solve_s" => "pass_s",
        "setup_s" => "setup_rep_s",
        _ => return 0.0,
    };
    let samples: Vec<f64> = entry
        .get("detail")
        .and_then(|d| d.get(samples))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let [q1, _, q3] = quartiles(&samples);
    (q3 - q1) / value
}

/// Compares two results documents; returns the report lines and whether B
/// is acceptable: no cell worse beyond its bound, no exact count changed,
/// no failed operation.
pub fn compare_docs(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    if is_traced(a) != is_traced(b) {
        return (
            vec!["one file is a traced run and the other is not".into()],
            false,
        );
    }
    for w in &spec::WORKLOADS {
        let (Some(ea), Some(eb)) = (workload(a, w.name), workload(b, w.name)) else {
            lines.push(format!("{}: missing on one side", w.name));
            ok = false;
            continue;
        };
        if eb.get("failed").and_then(Json::as_f64) != Some(0.0) {
            lines.push(format!("{}: B has failed operations", w.name));
            ok = false;
        }
        if is_traced(a) {
            for m in spec::per_layer().iter().filter(|m| m.exact) {
                let (va, vb) = (value(ea, &m.name), value(eb, &m.name));
                if va != vb {
                    lines.push(format!(
                        "{:<16} {:<34} exact count differs: {va:?} -> {vb:?}",
                        w.name, m.name
                    ));
                    ok = false;
                }
            }
            continue;
        }
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) = (value(ea, m.name), value(eb, m.name)) else {
                lines.push(format!("{}: {} missing on one side", w.name, m.name));
                ok = false;
                continue;
            };
            let (sa, sb) = (
                recorded_spread(ea, m.name, va),
                recorded_spread(eb, m.name, vb),
            );
            let v = verdict(va, vb, sa, sb, m.bound);
            ok &= v != Verdict::Worse;
            lines.push(format!(
                "{:<16} {:<12} {va:>12.4} -> {vb:>12.4} {} ({:+.1}%, bound {:.0}%, spreads {:.1}% / {:.1}%)  {v:?}",
                w.name,
                m.name,
                m.unit,
                (vb - va) / va * 100.0,
                m.bound * 100.0,
                sa * 100.0,
                sb * 100.0,
            ));
        }
    }
    (lines, ok)
}

pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (lines, ok) = compare_docs(&load(a)?, &load(b)?);
    for line in &lines {
        println!("{line}");
    }
    println!(
        "compare: {}",
        if ok {
            "B is no worse than A"
        } else {
            "B is WORSE than A"
        }
    );
    Ok(ok)
}

/// Runs the whole benchmark `n` times labelled A interleaved with `n`
/// labelled B — the same build, so any difference is noise — and prints a
/// markdown table of both medians per cell against the bound. A cell that
/// differs by more than half its bound means the benchmark is too noisy.
pub fn aa(n: usize, mut run: impl FnMut(&str) -> Result<PathBuf, String>) -> Result<bool, String> {
    let (mut a_docs, mut b_docs) = (Vec::new(), Vec::new());
    for i in 0..n {
        a_docs.push(load(&run(&format!("-A{i}"))?)?);
        b_docs.push(load(&run(&format!("-B{i}"))?)?);
    }
    println!("\n| workload | metric | unit | A median | B median | difference | bound | within half the bound |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut steady = true;
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let side = |docs: &[Json]| {
                let values: Vec<f64> = docs
                    .iter()
                    .filter_map(|d| value(workload(d, w.name)?, m.name))
                    .collect();
                median(&values)
            };
            let (ma, mb) = (side(&a_docs), side(&b_docs));
            let diff = (mb - ma) / ma;
            let within = diff.abs() <= m.bound / 2.0;
            steady &= within;
            println!(
                "| {} | {} | {} | {ma:.4} | {mb:.4} | {:+.2}% | {:.0}% | {} |",
                w.name,
                m.name,
                m.unit,
                diff * 100.0,
                m.bound * 100.0,
                if within { "yes" } else { "NO" }
            );
        }
    }
    println!(
        "\n{n} runs a side; every cell within half its bound: {}",
        if steady { "yes" } else { "NO" }
    );
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An untraced results document with every cell at `solve`/1.0/100.0,
    /// its passes spread evenly so that their quartiles are `solve_iqr` apart.
    fn doc(solve: f64, solve_iqr: f64, failed: f64) -> Json {
        let passes = (0..19)
            .map(|i| Json::Num(solve + solve_iqr * (f64::from(i) - 9.0) / 10.0))
            .collect();
        let metric = |v: f64, unit: &str| {
            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))])
        };
        let entry = Json::obj([
            ("correct", Json::Bool(failed == 0.0)),
            ("attempted", Json::Num(40.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj([
                    ("setup_s", metric(1.0, "s")),
                    ("solve_s", metric(solve, "s")),
                    ("peak_rss_mb", metric(100.0, "MiB")),
                ]),
            ),
            (
                "detail",
                Json::obj([
                    ("setup_rep_s", Json::Arr(vec![Json::Num(1.0); 7])),
                    ("pass_s", Json::Arr(passes)),
                ]),
            ),
        ]);
        Json::obj([
            ("trace", Json::Num(0.0)),
            (
                "workloads",
                Json::obj(spec::WORKLOADS.iter().map(|w| (w.name, entry.clone()))),
            ),
        ])
    }

    #[test]
    fn verdicts_on_hand_made_cells() {
        assert_eq!(verdict(1.0, 1.05, 0.02, 0.02, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(1.0, 0.95, 0.02, 0.02, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(1.0, 1.2, 0.02, 0.02, 0.1), Verdict::Worse);
        assert_eq!(verdict(1.0, 0.8, 0.02, 0.02, 0.1), Verdict::Better);
        // A noisy side hides "no worse", never "worse".
        assert_eq!(verdict(1.0, 1.05, 0.3, 0.02, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 0.8, 0.02, 0.3, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(1.0, 1.2, 0.3, 0.3, 0.1), Verdict::Worse);
    }

    #[test]
    fn compare_passes_equal_runs_and_fails_a_slower_one() {
        let (_, ok) = compare_docs(&doc(0.5, 0.01, 0.0), &doc(0.52, 0.01, 0.0));
        assert!(ok);
        let (lines, ok) = compare_docs(&doc(0.5, 0.01, 0.0), &doc(0.75, 0.01, 0.0));
        assert!(!ok);
        assert_eq!(
            lines.iter().filter(|l| l.ends_with("Worse")).count(),
            spec::WORKLOADS.len()
        );
    }

    #[test]
    fn compare_reports_a_noisy_cell_as_unresolved_not_unchanged() {
        let (lines, ok) = compare_docs(&doc(0.5, 0.01, 0.0), &doc(0.5, 0.3, 0.0));
        assert!(ok, "unresolved is not a regression");
        assert!(lines
            .iter()
            .any(|l| l.contains("solve_s") && l.ends_with("Unresolved")));
        assert!(lines
            .iter()
            .any(|l| l.contains("setup_s") && l.ends_with("Unchanged")));
    }

    #[test]
    fn compare_fails_on_failed_operations_and_mixed_kinds() {
        let (_, ok) = compare_docs(&doc(0.5, 0.01, 0.0), &doc(0.5, 0.01, 3.0));
        assert!(!ok);
        let Json::Obj(mut traced) = doc(0.5, 0.01, 0.0) else {
            unreachable!()
        };
        traced[0].1 = Json::Num(1.0);
        let (_, ok) = compare_docs(&doc(0.5, 0.01, 0.0), &Json::Obj(traced));
        assert!(!ok);
    }

    #[test]
    fn compare_fails_when_an_exact_count_moves() {
        let traced = |cycles: f64| {
            let metrics = Json::obj(spec::per_layer().into_iter().map(|m| {
                let v = if m.name == "core.prd_sim_cycles" {
                    cycles
                } else {
                    1.0
                };
                (
                    m.name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::Str(m.unit.into()))]),
                )
            }));
            let entry = Json::obj([
                ("correct", Json::Bool(true)),
                ("attempted", Json::Num(40.0)),
                ("failed", Json::Num(0.0)),
                ("metrics", metrics),
            ]);
            Json::obj([
                ("trace", Json::Num(1.0)),
                (
                    "workloads",
                    Json::obj(spec::WORKLOADS.iter().map(|w| (w.name, entry.clone()))),
                ),
            ])
        };
        assert!(problems(&traced(7.0)).is_empty());
        assert!(compare_docs(&traced(7.0), &traced(7.0)).1);
        let (lines, ok) = compare_docs(&traced(7.0), &traced(8.0));
        assert!(!ok);
        assert!(lines[0].contains("core.prd_sim_cycles"));
    }

    #[test]
    fn check_wants_exactly_the_declared_cells() {
        assert!(problems(&doc(0.5, 0.01, 0.0)).is_empty());
        assert!(problems(&doc(0.5, 0.01, 1.0))
            .iter()
            .any(|p| p.contains("operations failed")));

        let Json::Obj(mut top) = doc(0.5, 0.01, 0.0) else {
            unreachable!()
        };
        let Json::Obj(workloads) = &mut top[1].1 else {
            unreachable!()
        };
        workloads.pop();
        workloads.push(("extra-r9".into(), Json::Null));
        let found = problems(&Json::Obj(top));
        assert!(found
            .iter()
            .any(|p| p.contains("extra-r9: not a declared workload")));
        assert!(found.iter().any(|p| p.contains("serve-mixed-r15: missing")));
    }

    #[test]
    fn child_output_parses_to_result_plus_detail() {
        let out = format!("accum-r16 solve_s 0.5 s\n{DETAIL_PREFIX} {{\"passes\":18}}\n{{\"correct\":true,\"failed\":0}}\n");
        let entry = parse_child(&out).unwrap();
        assert_eq!(
            entry.get("detail").and_then(|d| d.get("passes")),
            Some(&Json::Num(18.0))
        );
        assert_eq!(entry.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(parse_child("no result here\n").is_none());
    }
}
