//! Invocation tests for the `fuzz`, `chaos`, `serve_bench`, `container`,
//! `bench_check` and harness (`report`, `ablations`, `streaming`) binaries: good runs
//! exit 0, validation failures exit 1, bad flags — a flag the binary would
//! ignore included — and unknown schemas exit 2 with a usage text that
//! enumerates every valid fault kind / schema tag / flag. The seed-42 chaos
//! campaign must also reproduce the committed `BENCH_chaos.json`.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("could not spawn {bin}: {e}"))
}

#[test]
fn fuzz_good_invocation_passes() {
    let out = run(env!("CARGO_BIN_EXE_fuzz"), &["--seed", "3", "--iters", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("1 iteration(s) passed"), "{stdout}");
}

#[test]
fn fuzz_bad_fault_exits_2_and_lists_every_kind() {
    let out = run(env!("CARGO_BIN_EXE_fuzz"), &["--inject-fault", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown fault \"nope\""), "{stderr}");
    for kind in gp_chaos::FaultKind::labels() {
        assert!(
            stderr.contains(kind),
            "usage must list fault kind {kind}:\n{stderr}"
        );
    }
}

#[test]
fn fuzz_help_lists_every_fault_kind() {
    let out = run(env!("CARGO_BIN_EXE_fuzz"), &["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for kind in gp_chaos::FaultKind::labels() {
        assert!(stdout.contains(kind), "help must list {kind}:\n{stdout}");
    }
}

#[test]
fn fuzz_injected_fault_exits_1() {
    let out = run(
        env!("CARGO_BIN_EXE_fuzz"),
        &[
            "--seed",
            "7",
            "--iters",
            "5",
            "--no-shrink",
            "--inject-fault",
            "drop-event",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("chaos-detection"), "{stdout}");
}

#[test]
fn chaos_bad_flag_exits_2() {
    let out = run(env!("CARGO_BIN_EXE_chaos"), &["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

/// The seed-42 campaign — every fault kind against the chaos executor, the
/// shard-parallel engine and turbo — writes the committed
/// `BENCH_chaos.json` byte for byte, so a change to any engine it runs that
/// moves a detection, a recovery or a counter fails the test suite.
#[test]
fn chaos_campaign_reproduces_the_committed_record() {
    let out_path = temp_path("chaos-42.json");
    let out = run(
        env!("CARGO_BIN_EXE_chaos"),
        &["--seed", "42", "--out", out_path.to_str().unwrap()],
    );
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read_to_string(&out_path).expect("chaos wrote its record");
    std::fs::remove_file(&out_path).ok();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    let committed = std::fs::read_to_string(committed).expect("the committed record");
    if let Some((line, (got, want))) = fresh
        .lines()
        .zip(committed.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "BENCH_chaos.json line {} differs:\n  fresh:     {got}\n  committed: {want}\n\
             regenerate with chaos --seed 42 --out BENCH_chaos.json",
            line + 1
        );
    }
    assert_eq!(fresh, committed, "same lines, different bytes");
}

/// A flag value a run cannot use is refused by the shared parser with the
/// usage status, one `error:` line and the flag reference — not passed on
/// to panic somewhere downstream.
fn assert_refused(bin: &str, args: &[&str], why: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    assert!(
        stderr.starts_with(&format!("error: {why}\n")),
        "{args:?}:\n{stderr}"
    );
    assert!(stderr.contains("\n\nFlags:\n"), "{args:?}:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

#[test]
fn zero_scale_is_refused_by_every_harness_binary() {
    // Every one that reads `--scale`: an update stream has `--vertices`.
    for bin in [
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_report"),
    ] {
        assert_refused(bin, &["--scale", "0"], "--scale must be at least 1");
    }
}

/// Each harness binary refuses the flags it would parse and ignore, as it
/// refuses a flag nobody has, and its usage lists exactly what it reads.
fn assert_reads_exactly(bin: &str, reads: &str) {
    let all = "--scale --seed --workloads --apps --threads --workers --epoch-cycles \
               --vertices --batches --batch-size --delete-frac";
    let reads: Vec<&str> = reads.split(' ').collect();
    assert!(reads.iter().all(|flag| all.split(' ').any(|f| f == *flag)));
    let help = run(bin, &["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    for flag in all.split(' ') {
        let listed = usage.contains(&format!("\n  {flag} "));
        assert_eq!(listed, reads.contains(&flag), "{flag}:\n{usage}");
        if !listed {
            assert_refused(bin, &[flag, "1"], &format!("unknown flag {flag}"));
        }
    }
}

#[test]
fn report_refuses_the_update_stream_flags() {
    let report = env!("CARGO_BIN_EXE_report");
    assert_reads_exactly(
        report,
        "--scale --seed --workloads --apps --threads --workers --epoch-cycles",
    );
    // The grid's rows are Table II's five, in any spelling of the table.
    let why = "unknown app sswp (expected pr,ads,sssp,bfs,cc)";
    assert_refused(report, &["--apps", "bfs,sswp"], why);
    let args: Vec<&str> = TINY[..4]
        .iter()
        .chain(&["--apps", "BFS"])
        .copied()
        .collect();
    let out = run(report, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("[evaluate] BFS/WG"), "{stderr}");
}

#[test]
fn ablations_refuses_every_flag_its_fixed_cell_ignores() {
    let ablations = env!("CARGO_BIN_EXE_ablations");
    assert_reads_exactly(ablations, "--scale --seed --workers --epoch-cycles");
}

#[test]
fn streaming_refuses_the_grid_flags_and_apps_selects_its_rows() {
    let streaming = env!("CARGO_BIN_EXE_streaming");
    assert_reads_exactly(
        streaming,
        "--seed --apps --workers --epoch-cycles --vertices --batches --batch-size --delete-frac",
    );
    // Adsorption has no incremental seeding rule.
    let why = "unknown app ads (expected pr,sssp,bfs,cc,sswp)";
    assert_refused(streaming, &["--apps", "ads"], why);

    let rows = |apps: Option<&str>| -> Vec<Vec<String>> {
        let mut args = vec!["--vertices", "64", "--batches", "1", "--batch-size", "4"];
        args.extend(apps.iter().flat_map(|a| ["--apps", a]));
        let out = run(streaming, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{apps:?}:\n{stderr}");
        // Data rows follow the header and its rule; cells are padded to
        // the widest in their column.
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|line| line.starts_with('|'))
            .skip(2)
            .map(|line| {
                line.split('|')
                    .map(|cell| cell.trim().to_string())
                    .collect()
            })
            .collect()
    };
    let all = rows(None);
    let apps: Vec<&str> = all.iter().map(|row| row[1].as_str()).collect();
    assert_eq!(apps, ["PRD", "SSSP", "BFS", "CC", "SSWP"]);
    // A selection prints the selected rows, in the order given, unchanged.
    assert_eq!(rows(Some("sswp,BFS")), [all[4].clone(), all[2].clone()]);
}

/// The one-cell grid `report` finishes in milliseconds.
const TINY: [&str; 6] = ["--scale", "4096", "--workloads", "WG", "--apps", "bfs"];

#[test]
fn zero_epoch_and_out_of_range_delete_fraction_are_refused() {
    let report = env!("CARGO_BIN_EXE_report");
    let bad_epoch = ["--workers", "2", "--epoch-cycles", "0"];
    let args: Vec<&str> = TINY.iter().chain(&bad_epoch).copied().collect();
    assert_refused(report, &args, "--epoch-cycles must be at least 1");
    let streaming = env!("CARGO_BIN_EXE_streaming");
    for bad in ["2", "-0.5", "NaN"] {
        let args = ["--vertices", "64", "--delete-frac", bad];
        let why = format!("--delete-frac must be between 0 and 1, got {bad}");
        assert_refused(streaming, &args, &why);
    }
}

#[test]
fn zero_counts_that_have_a_meaning_still_run() {
    // The audit's other half: these zeros reach code that handles them
    // (`--workers 0` and `--threads 0` mean one; an empty update stream is
    // an empty table), so they stay accepted.
    for zero in [["--workers", "0"], ["--threads", "0"]] {
        let args: Vec<&str> = TINY.iter().chain(&zero).copied().collect();
        let out = run(env!("CARGO_BIN_EXE_report"), &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{zero:?}:\n{stderr}");
        // A grid without the PRD/LJ cell says which tables it left out and
        // still gives its verdict on the one cell it has.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.matches("skipped: --apps / --workloads").count(), 3);
        assert!(stdout.contains("### Reproduction verdict\n"), "{stdout}");
        assert!(stdout.contains("1/1 cells; geomean"), "{stdout}");
    }
    for zero in [
        ["--vertices", "0"],
        ["--batches", "0"],
        ["--batch-size", "0"],
    ] {
        let args: Vec<&str> = ["--vertices", "64", "--batches", "1"]
            .iter()
            .chain(&zero)
            .copied()
            .collect();
        let out = run(env!("CARGO_BIN_EXE_streaming"), &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{zero:?}:\n{stderr}");
    }
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gp-bench-cli-{}-{name}", std::process::id()))
}

/// A hand-written document that satisfies every rule of `json::SERVE`;
/// the malformed variants below each break exactly one of them.
const VALID_SERVE_DOC: &str = r#"{"schema":"gp-bench/serve/v3","seed":1,"vertices":64,
"edges":256,"tenants":1,"clients":1,
"runs":[{"executors":2,"queries_total":10,"wall_secs":0.1,
"throughput_qps":100,"rejected":0,"degraded":0,"epochs_published":1,
"update_batches":1,"warm_starts":0,"cold_runs":1,"fused_runs":1,
"path_cache_hits":0,"path_warm_starts":0,"verified_samples":2,
"verify_failures":0,
"classes":[{"class":"pagerank","served":10,"mean_us":5,"p50_us":4,
"p99_us":9,"p999_us":9,"max_us":9}]}]}"#;

#[test]
fn serve_bench_tiny_run_emits_output_bench_check_accepts() {
    let out_path = temp_path("serve-tiny.json");
    let out = run(
        env!("CARGO_BIN_EXE_serve_bench"),
        &[
            "--seed",
            "9",
            "--vertices",
            "64",
            "--queries",
            "100",
            "--clients",
            "2",
            "--batches",
            "1",
            "--batch-size",
            "8",
            "--sample-every",
            "16",
            "--executors",
            "1,2",
            "--verify-all",
            "--out",
            out_path.to_str().unwrap(),
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 mismatch(es)"), "{stdout}");
    assert!(
        stdout.contains("2 executor(s)"),
        "sweep must reach the second pool size:\n{stdout}"
    );
    let check = run(
        env!("CARGO_BIN_EXE_bench_check"),
        &[out_path.to_str().unwrap()],
    );
    assert!(
        check.status.success(),
        "bench_check rejected serve_bench's own output:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn serve_bench_help_exits_0_and_bad_flag_exits_2() {
    let help = run(env!("CARGO_BIN_EXE_serve_bench"), &["--help"]);
    assert!(help.status.success());
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert!(stdout.contains("--verify-all"), "{stdout}");
    assert!(stdout.contains("--executors"), "{stdout}");

    let bad = run(env!("CARGO_BIN_EXE_serve_bench"), &["--wat"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown flag"));
}

#[test]
fn serve_bench_rejects_bad_executor_flags_with_usage() {
    // Zero anywhere in the sweep list and a non-numeric or empty entry are
    // bad invocations: exit 2 and print the usage.
    for args in [
        ["--executors", "0"],
        ["--executors", "1,0,4"],
        ["--executors", "two"],
        ["--executors", ""],
    ] {
        let out = run(env!("CARGO_BIN_EXE_serve_bench"), &args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("Usage: serve_bench"),
            "{args:?} must print usage:\n{stderr}"
        );
        assert!(
            stderr.contains(args[0]),
            "{args:?} diagnostic must name the flag:\n{stderr}"
        );
    }
}

#[test]
fn container_writes_its_record_like_the_other_record_binaries() {
    // A missing parent directory is created, the record ends in exactly one
    // newline, and bench_check accepts it.
    let base = temp_path("container");
    let out_path = base.join("a").join("b").join("o.json");
    let out = run(
        env!("CARGO_BIN_EXE_container"),
        &[
            "--seed",
            "7",
            "--log2",
            "10",
            "--out",
            out_path.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    assert!(text.ends_with("}\n") && !text.ends_with("\n\n"), "{text:?}");
    let check = run(
        env!("CARGO_BIN_EXE_bench_check"),
        &[out_path.to_str().unwrap()],
    );
    assert!(
        check.status.success(),
        "bench_check rejected container's own output:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn bench_check_holds_a_container_record_to_a_committed_one() {
    let base = temp_path("against");
    let fresh = base.join("fresh.json");
    let out = run(
        env!("CARGO_BIN_EXE_container"),
        &[
            "--seed",
            "7",
            "--log2",
            "10",
            "--out",
            fresh.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&fresh).unwrap();
    let against = |committed: &str| {
        let path = base.join("committed.json");
        std::fs::write(&path, committed).unwrap();
        run(
            env!("CARGO_BIN_EXE_bench_check"),
            &[fresh.to_str().unwrap(), "--against", path.to_str().unwrap()],
        )
    };

    // The record against itself: exit 0, wall times printed beside.
    let out = against(&text);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("log2_vertices 10: build_secs "), "{stdout}");
    assert!(stdout.contains("on every run-invariant count"), "{stdout}");

    // One moved count: exit 1, naming the entry, the algorithm and the field.
    let key = "\"events_processed\": ";
    let at = text.find(key).unwrap() + key.len();
    let digits = text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let events: u64 = text[at..at + digits].parse().unwrap();
    let moved = format!("{}{}{}", &text[..at], events + 1, &text[at + digits..]);
    let out = against(&moved);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "log2_vertices 10 / algo \"pagerank-delta\": events_processed is {events} here \
             but {} in the committed record",
            events + 1
        )),
        "{stderr}"
    );

    // A record of another kind, and a malformed invocation: exit 2.
    let out = against(VALID_SERVE_DOC);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(
        env!("CARGO_BIN_EXE_bench_check"),
        &[fresh.to_str().unwrap(), "--against"],
    );
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn container_refuses_a_budget_past_the_byte_count() {
    // 2^44 MiB is 2^64 bytes: `<< 20` would wrap it to zero.
    let out = run(
        env!("CARGO_BIN_EXE_container"),
        &["--budget-mb", "17592186044416"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: --budget-mb "), "{stderr}");
    assert!(stderr.contains("Usage: container"), "{stderr}");
    assert!(out.stdout.is_empty(), "the run started:\n{stderr}");
}

#[test]
fn bench_check_unknown_schema_exits_2_naming_known_tags() {
    let path = temp_path("unknown-schema.json");
    std::fs::write(&path, r#"{"schema": "gp-bench/mystery/v9"}"#).unwrap();
    let out = run(env!("CARGO_BIN_EXE_bench_check"), &[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for tag in [
        "gp-bench/chaos/v1",
        "gp-bench/serve/v3",
        "gp-bench/outofcore/v2",
    ] {
        assert!(stderr.contains(tag), "must name known tag {tag}:\n{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bench_check_accepts_valid_serve_doc_and_rejects_tampered_one() {
    let good = temp_path("serve-good.json");
    std::fs::write(&good, VALID_SERVE_DOC).unwrap();
    let out = run(env!("CARGO_BIN_EXE_bench_check"), &[good.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&good).ok();

    // A recorded cross-check failure is a validation failure: exit 1.
    let bad = temp_path("serve-bad.json");
    std::fs::write(
        &bad,
        VALID_SERVE_DOC.replace("\"verify_failures\":0", "\"verify_failures\":3"),
    )
    .unwrap();
    let out = run(env!("CARGO_BIN_EXE_bench_check"), &[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("diverged"));
    std::fs::remove_file(&bad).ok();
}

/// A deeply nested file is refused before the recursive parser can
/// overflow the stack — bare and under a record's key: exit 2 naming the
/// cap, not an abort.
#[test]
fn bench_check_refuses_a_deeply_nested_file() {
    let depth = 100_000;
    let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let keyed = format!(r#"{{"schema": "gp-bench/serve/v3", "runs": {nested}}}"#);
    for (name, text) in [("deep-bare.json", &nested), ("deep-keyed.json", &keyed)] {
        let path = temp_path(name);
        std::fs::write(&path, text).unwrap();
        let out = run(env!("CARGO_BIN_EXE_bench_check"), &[path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains("is not valid JSON: nesting deeper than 128 levels at byte"),
            "{name}: {stderr}"
        );
        std::fs::remove_file(&path).ok();
    }
}
