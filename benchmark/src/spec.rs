//! What the benchmark declares: run shape, workloads, metrics. This table
//! is the source of `BENCHMARK.json` (`run.sh --manifest` prints it, a unit
//! test holds the committed file to it) and of what `--check` accepts.

use crate::json::Json;

/// Seconds one run's timed phase lasts.
pub const RUN_SECONDS: u64 = 10;
/// From-scratch set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Passes the timed phase makes even when `RUN_SECONDS` is over sooner.
pub const MIN_PASSES: usize = 16;
pub const DEFAULT_SEED: u64 = 42;

pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
pub const PATHS: [&str; 1] = ["benchmark"];

/// Algorithm keys used in metric names, in reporting order.
pub const ALGS: [&str; 5] = ["prd", "sssp", "bfs", "cc", "sswp"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "accum-r16",
        why: "cold PageRank-delta on a resident 2^16 R-MAT through turbo then golden: wheel, reschedule churn and coalesce RMW dominate, so a turbo engine change shows here",
    },
    WorkloadSpec {
        name: "mapped-r16",
        why: "SSSP, BFS, SSWP from four roots and CC through golden and turbo over a mapped 2^16 container: per-edge decode dominates, the wheel idles, so a GraphView change shows here and a wheel change must not",
    },
    WorkloadSpec {
        name: "cycle-r12",
        why: "PageRank-delta and SSSP on the cycle-level accelerator model at 2^12: only core, sim and mem run, so a simulator host-speed change shows here and nowhere else",
    },
    WorkloadSpec {
        name: "stream-r16",
        why: "small update batches through two turbo-backed incremental engines at 2^16 with compactions in every pass: per-run fixed cost and overlay writes dominate, the opposite regime to accum-r16",
    },
    WorkloadSpec {
        name: "serve-mixed-r15",
        why: "closed loop of 64 mixed queries in flight against the query service while eight update batches publish per pass: admission, batching, path caches, warm replays and refreshes under writes",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// All three are lower-is-better and reported by every workload. Every
/// bound is the contract's ceiling: two sets of ten runs of identical code
/// on the host this was sized on differ by up to 13 % in their medians and
/// spread by up to 14 % within a set (README, noise measurements), and a
/// bound has to be three times the spread it sits above.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count that two runs with one seed must report identically.
    pub exact: bool,
    /// The end-to-end cell the metric should move.
    pub moves: &'static str,
}

/// The per-layer metrics of the traced run, in reporting order. A workload
/// that bypasses a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<Layer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better, exact, moves| {
        out.push(Layer {
            name,
            unit,
            better,
            exact,
            moves,
        });
    };
    const SOLVES: &str = "solve_s on accum-r16 (prd), mapped-r16 (rest)";

    add(
        "graph.generate_s".into(),
        "s",
        "lower",
        false,
        "setup_s everywhere",
    );
    add(
        "graph.build_s".into(),
        "s",
        "lower",
        false,
        "setup_s everywhere",
    );
    for (name, unit, exact) in [
        ("container_build_s", "s", false),
        ("container_open_s", "s", false),
        ("container_bytes", "B", true),
    ] {
        add(
            format!("graph.{name}"),
            unit,
            "lower",
            exact,
            "setup_s on mapped-r16",
        );
    }
    add(
        "graph.mapped_bytes_per_edge".into(),
        "B/edge",
        "lower",
        true,
        "solve_s on mapped-r16",
    );
    add(
        "graph.mapped_edges_read".into(),
        "count",
        "lower",
        true,
        "solve_s on mapped-r16",
    );
    for name in ["overlay_apply_s", "overlay_compact_s"] {
        add(
            format!("graph.{name}"),
            "s",
            "lower",
            false,
            "solve_s on stream-r16, serve-mixed-r15",
        );
    }

    for alg in ALGS {
        add(
            format!("algorithms.golden_{alg}_s"),
            "s",
            "lower",
            false,
            SOLVES,
        );
        add(
            format!("algorithms.golden_{alg}_events"),
            "count",
            "lower",
            true,
            SOLVES,
        );
    }

    for alg in ALGS {
        add(format!("turbo.{alg}_s"), "s", "lower", false, SOLVES);
        for count in [
            "events_processed",
            "events_coalesced",
            "stale_entries",
            "reschedules",
            "rounds",
        ] {
            add(
                format!("turbo.{alg}_{count}"),
                "count",
                "lower",
                true,
                SOLVES,
            );
        }
        add(
            format!("turbo.{alg}_vs_golden"),
            "ratio",
            "lower",
            false,
            SOLVES,
        );
    }
    add(
        "turbo.seeded_run_us_p50".into(),
        "us",
        "lower",
        false,
        "solve_s on stream-r16",
    );
    add(
        "turbo.useful_ratio".into(),
        "ratio",
        "higher",
        false,
        "solve_s on stream-r16",
    );

    const CYCLE: &str = "solve_s on cycle-r12";
    const SIMULATED: &str = "simulated cycles on cycle-r12; a host-speed change must not move it";
    for alg in ["prd", "sssp"] {
        add(format!("core.{alg}_host_s"), "s", "lower", false, CYCLE);
        for count in [
            "sim_cycles",
            "events_processed",
            "events_coalesced",
            "rounds",
        ] {
            add(
                format!("core.{alg}_{count}"),
                "count",
                "lower",
                true,
                SIMULATED,
            );
        }
    }
    add(
        "core.host_ns_per_sim_cycle".into(),
        "ns",
        "lower",
        false,
        CYCLE,
    );
    add("core.slices".into(), "count", "lower", true, SIMULATED);
    add(
        "core.proc_busy_frac".into(),
        "ratio",
        "higher",
        true,
        SIMULATED,
    );
    add(
        "core.gen_busy_frac".into(),
        "ratio",
        "higher",
        true,
        SIMULATED,
    );
    for stage in ["vtx_mem", "process", "gen_buffer", "edge_mem", "generate"] {
        add(
            format!("core.stage_{stage}"),
            "cycles",
            "lower",
            true,
            SIMULATED,
        );
    }
    add("mem.offchip_bytes".into(), "B", "lower", true, SIMULATED);
    add(
        "mem.offchip_accesses".into(),
        "count",
        "lower",
        true,
        SIMULATED,
    );
    add(
        "mem.byte_utilization".into(),
        "ratio",
        "higher",
        true,
        SIMULATED,
    );
    add(
        "mem.edge_cache_hit_rate".into(),
        "ratio",
        "higher",
        true,
        SIMULATED,
    );

    const STREAM: &str = "solve_s on stream-r16";
    add(
        "stream.initial_converge_s".into(),
        "s",
        "lower",
        false,
        "setup_s on stream-r16",
    );
    add("stream.batch_ms_p50".into(), "ms", "lower", false, STREAM);
    add("stream.batch_ms_p90".into(), "ms", "lower", false, STREAM);
    for name in [
        "dirty_per_batch",
        "events_per_batch",
        "invalidated_per_batch",
        "compactions",
    ] {
        add(format!("stream.{name}"), "count", "lower", false, STREAM);
    }

    const SERVE: &str = "solve_s on serve-mixed-r15";
    add(
        "serve.start_s".into(),
        "s",
        "lower",
        false,
        "setup_s on serve-mixed-r15",
    );
    for p in ["p50", "p99"] {
        for class in gp_serve::QueryClass::ALL {
            add(
                format!("serve.query_us_{p}_{}", class.name()),
                "us",
                "lower",
                false,
                SERVE,
            );
        }
    }
    add("serve.publish_ms_p50".into(), "ms", "lower", false, SERVE);
    add("serve.served".into(), "count", "higher", false, SERVE);
    add(
        "serve.degraded_share".into(),
        "ratio",
        "lower",
        false,
        SERVE,
    );
    add("serve.rejected".into(), "count", "lower", false, SERVE);
    add("serve.cold_runs".into(), "count", "lower", false, SERVE);
    add("serve.warm_starts".into(), "count", "higher", false, SERVE);
    add("serve.fused_runs".into(), "count", "lower", false, SERVE);
    add(
        "serve.path_cache_hit_ratio".into(),
        "ratio",
        "higher",
        false,
        SERVE,
    );
    add(
        "serve.path_warm_starts".into(),
        "count",
        "higher",
        false,
        SERVE,
    );
    add("serve.sweeps".into(), "count", "lower", false, SERVE);
    add(
        "serve.queries_per_sweep".into(),
        "count",
        "higher",
        false,
        SERVE,
    );

    const HOST: &str =
        "explains solve_s on every workload; says whether a slow run was the scheduler's doing";
    add("host.cpu_s".into(), "s", "lower", false, HOST);
    add("host.runq_wait_s".into(), "s", "lower", false, HOST);
    add("host.minor_faults".into(), "count", "lower", false, HOST);
    add("host.major_faults".into(), "count", "lower", false, HOST);
    add(
        "host.trace_overhead_frac".into(),
        "ratio",
        "lower",
        false,
        "traced pass / untraced pass - 1, every workload",
    );
    out
}

/// `BENCHMARK.json` as the builder's contract shapes it.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str("lower".into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name)),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn committed_manifest_is_this_table() {
        let committed =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with benchmark/run.sh --manifest"
        );
    }

    #[test]
    fn the_table_fits_the_contract() {
        let layers = per_layer();
        assert_eq!(layers.len(), 113);
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|m| m.name.clone()));
        for name in names {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(setup.name, "setup_s");
        for m in &END_TO_END {
            assert!(m.bound <= 0.25 && m.bound <= setup.bound, "{}", m.name);
        }
        for m in &layers {
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        assert!(manifest().render().len() < 64 * 1024);
    }
}
