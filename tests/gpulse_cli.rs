//! Invocation tests for the `gpulse` binary: a bad flag value, a missing
//! file or an unknown name is a one-line error and a non-zero exit, never
//! a panic, and a good run on every backend exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

const BACKENDS: [&str; 4] = ["accel", "base", "ligra", "graphicionado"];

fn gpulse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpulse"))
        .args(args)
        .output()
        .expect("could not spawn gpulse")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gpulse-cli-{}-{name}", std::process::id()))
}

/// A three-vertex weighted cycle, written as an edge list.
fn triangle(name: &str) -> PathBuf {
    let path = temp_path(name);
    std::fs::write(&path, "# triangle\n0 1 2.0\n1 2 3.0\n2 0 1.5\n").unwrap();
    path
}

/// Asserts a refused invocation: non-zero exit, `needle` in a message on
/// stderr, and no panic. Returns stderr.
fn assert_refused(args: &[&str], needle: &str) -> String {
    let out = gpulse(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{args:?} must fail:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(
        stderr.contains("error:") && stderr.contains(needle),
        "{args:?} must name {needle:?}:\n{stderr}"
    );
    stderr
}

#[test]
fn zero_scale_is_refused() {
    assert_refused(&["--scale", "0"], "--scale");
}

#[test]
fn out_of_range_root_is_refused_on_every_backend() {
    let graph = triangle("root.txt");
    let graph_arg = graph.to_str().unwrap();
    for backend in BACKENDS {
        for app in ["ppr", "bfs", "sssp", "sswp"] {
            // The framework has no port of these two, which is found out
            // before the root can be.
            let unported = backend == "ligra" && matches!(app, "ppr" | "sswp");
            assert_refused(
                &[
                    "--graph",
                    graph_arg,
                    "--app",
                    app,
                    "--backend",
                    backend,
                    "--root",
                    "99",
                ],
                if unported { app } else { "--root 99" },
            );
        }
    }
    std::fs::remove_file(graph).ok();

    // An empty edge list has no vertex for the default root either.
    let empty = temp_path("empty.txt");
    std::fs::write(&empty, "# no edges\n").unwrap();
    assert_refused(
        &["--graph", empty.to_str().unwrap(), "--app", "ppr"],
        "no vertices",
    );
    std::fs::remove_file(empty).ok();
}

#[test]
fn missing_graph_file_and_unknown_app_are_refused() {
    let missing = temp_path("no-such-file.txt");
    assert_refused(&["--graph", missing.to_str().unwrap()], "open");
    let graph = triangle("app.txt");
    for backend in BACKENDS {
        assert_refused(
            &[
                "--graph",
                graph.to_str().unwrap(),
                "--app",
                "quux",
                "--backend",
                backend,
            ],
            "unknown app quux (expected pr,ads,sssp,bfs,cc,sswp,ppr)",
        );
    }
    std::fs::remove_file(graph).ok();
}

/// An edge list naming vertex `u32::MAX` cannot be sized: the reader
/// refuses the line instead of panicking in the graph builder.
#[test]
fn an_id_past_the_vertex_count_is_a_parse_error() {
    let graph = temp_path("huge-id.txt");
    std::fs::write(&graph, "0 4294967295\n").unwrap();
    let stderr = assert_refused(
        &["--graph", graph.to_str().unwrap()],
        "error: parse error on line 1",
    );
    assert!(stderr.contains("4294967295"), "{stderr}");
    assert_eq!(
        gpulse(&["--graph", graph.to_str().unwrap()]).status.code(),
        Some(1)
    );
    std::fs::remove_file(graph).ok();
}

/// A weight the algorithms cannot use (here NaN) is refused on its line
/// before any run: no panic, and no run on a poisoned graph.
#[test]
fn a_nan_weight_is_a_parse_error() {
    let graph = temp_path("nan-weight.txt");
    std::fs::write(&graph, "0 1 2.0\n1 2 nan\n").unwrap();
    let out = gpulse(&["--graph", graph.to_str().unwrap(), "--app", "sssp"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("error: parse error on line 2: weight: NaN is not finite and > 0"),
        "{stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
    std::fs::remove_file(graph).ok();
}

/// `--app`, `--backend` and whether the backend has the app are settled
/// before the graph is synthesized: a refusal carries no `graph:` line.
#[test]
fn bad_names_are_refused_before_the_graph_is_built() {
    for (args, needle) in [
        (["--app", "quux", "--scale", "64"], "unknown app quux"),
        (
            ["--backend", "gpu", "--scale", "64"],
            "unknown backend gpu (expected accel,base,ligra,graphicionado)",
        ),
        (
            ["--threads", "0", "--scale", "64"],
            "--threads must be at least 1",
        ),
    ] {
        let stderr = assert_refused(&args, needle);
        assert!(!stderr.contains("graph:"), "{args:?}");
    }
    for app in ["sswp", "PPR"] {
        let args = ["--app", app, "--backend", "ligra", "--scale", "64"];
        let needle = "not available on the ligra backend (expected pr,ads,sssp,bfs,cc)";
        let stderr = assert_refused(&args, needle);
        assert!(!stderr.contains("graph:"), "{args:?}");
    }
}

/// `--app` takes every spelling `report --apps` does: any case, the paper's
/// labels, the long names.
#[test]
fn upper_case_and_alias_spellings_run() {
    let graph = triangle("spellings.txt");
    let run = |app: &str, backend: &str| {
        let out = gpulse(&[
            "--graph",
            graph.to_str().unwrap(),
            "--app",
            app,
            "--backend",
            backend,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{app} on {backend}:\n{stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    for backend in ["accel", "Graphicionado"] {
        let reference = run("pr", backend);
        for spelling in ["PR", "prd", "PRD", "pagerank", "PageRank"] {
            assert_eq!(run(spelling, backend), reference, "{spelling} on {backend}");
        }
        assert_eq!(run("ADS", backend), run("adsorption", backend));
        assert_eq!(run("SSWP", backend), run("sswp", backend));
        // Personalized PageRank is its own run, on every simulated backend.
        assert_ne!(run("PPR", backend), reference);
    }
    run("Adsorption", "LIGRA");
    std::fs::remove_file(graph).ok();
}

#[test]
fn every_backend_runs_a_tiny_edge_list_and_writes_its_values() {
    let graph = triangle("run.txt");
    let values = temp_path("values.csv");
    for backend in BACKENDS {
        for (app, root) in [("pr", None), ("cc", None), ("sssp", Some("2"))] {
            let mut args = vec![
                "--graph",
                graph.to_str().unwrap(),
                "--app",
                app,
                "--backend",
                backend,
                "--values",
                values.to_str().unwrap(),
            ];
            if let Some(root) = root {
                args.extend(["--root", root]);
            }
            let out = gpulse(&args);
            assert!(
                out.status.success(),
                "{app} on {backend}:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let csv = std::fs::read_to_string(&values).unwrap();
            let rows: Vec<&str> = csv.lines().collect();
            assert_eq!(rows[0], "vertex,value", "{app} on {backend}");
            assert_eq!(rows.len(), 4, "{app} on {backend}: {csv}");
            if app == "sssp" {
                // 2 → 0 (1.5) → 1 (2.0).
                assert_eq!(rows[1..], ["0,1.5", "1,3.5", "2,0"], "{backend}");
            }
        }
    }
    std::fs::remove_file(graph).ok();
    std::fs::remove_file(values).ok();
}
