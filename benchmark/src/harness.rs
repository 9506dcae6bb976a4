//! How every workload is timed.
//!
//! *Set-up* = generate the input, build the structure, construct the engine
//! or server and run one cold pass; it is repeated from scratch (previous
//! instance dropped first) and `setup_s` is the median. The last cold pass
//! is then verified, untimed, against the reference. The *timed phase*
//! repeats the pass until the run's seconds are over and enough passes are
//! done; `solve_s` is the fast-decile pass wall time (see
//! [`fast_decile`]). A single shot is never reported: on a shared host one
//! solve wanders by tens of percent.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::host::{self, Usage};
use crate::json::Json;
use crate::spec;
use crate::stats::{fast_decile, median};
use crate::trace::Tracer;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
    pub min_passes: usize,
    /// `--smoke`: every graph at 2^10, passes cut to match.
    pub smoke: bool,
    /// Where containers and span dumps go.
    pub out_dir: PathBuf,
}

impl Params {
    /// log2 of the vertex count: the workload's own, or 10 under `--smoke`.
    pub fn log2(&self, full: u32) -> u32 {
        if self.smoke {
            10
        } else {
            full
        }
    }
}

/// What one pass did. An operation is one solve, one update batch or one
/// query; it fails on an error, a rejection or a wrong value.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// One fingerprint (deterministic counters and a checksum of the
    /// values) per operation that must repeat exactly in every pass.
    pub prints: Vec<u64>,
}

/// Per-layer values by metric name.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

pub trait Workload: Sized {
    /// Generates the input, builds the structure, constructs the engine.
    fn setup(p: &Params, tr: &mut Tracer) -> Self;
    /// One pass: a fixed, seed-determined list of operations.
    fn pass(&mut self, tr: &mut Tracer) -> Pass;
    /// Checks, untimed, the outputs of the passes since the last call
    /// against the reference; returns how many operations were wrong.
    fn verify(&mut self) -> u64;
    /// Measurements the traced run takes outside the passes.
    fn probe(&mut self, _tr: &mut Tracer) {}
    /// The layer metrics this workload exercises; `passes` is how many
    /// passes this instance ran.
    fn layers(&self, tr: &Tracer, passes: usize, out: &mut Layers);
    /// Stops what `setup` started.
    fn teardown(self) {}
}

/// The result line the driver reads, plus every set-up and pass time, from
/// which `--compare` judges how far the run agrees with itself.
pub struct Outcome {
    pub result: Json,
    pub detail: Json,
}

pub fn run<W: Workload>(name: &str, p: &Params) -> Outcome {
    let seconds = |v: &[f64]| Json::Arr(v.iter().map(|&s| Json::Num(s)).collect());
    let mut tr = Tracer::new(p.trace);
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut setup_s = Vec::new();
    let mut last: Option<(W, Pass)> = None;
    for _ in 0..p.setup_reps.max(1) {
        if let Some((previous, _)) = last.take() {
            previous.teardown();
        }
        let t0 = Instant::now();
        let (instance, cold) = tr.span("setup", |tr| {
            let mut instance = W::setup(p, tr);
            let cold = instance.pass(tr);
            (instance, cold)
        });
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.next_pass();
        attempted += cold.attempted;
        failed += cold.failed;
        last = Some((instance, cold));
    }
    let (mut w, cold) = last.expect("at least one set-up");
    failed += w.verify();
    if p.trace {
        tr.span("probe", |tr| w.probe(tr));
        tr.next_pass();
    }

    // Untraced passes read the clock here and nowhere else. The traced run
    // traces every other pass, so one process yields both pass times and
    // their ratio is the tracing overhead.
    tr.start_timed_phase();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let before = Usage::now();
    let phase = Instant::now();
    let mut passes = 0;
    while passes < p.min_passes || phase.elapsed().as_secs_f64() < p.seconds {
        tr.on = p.trace && passes % 2 == 1;
        let t0 = Instant::now();
        let pass = tr.span("pass", |tr| w.pass(tr));
        let dt = t0.elapsed().as_secs_f64();
        tr.next_pass();
        if tr.on { &mut traced_s } else { &mut plain_s }.push(dt);
        attempted += pass.attempted;
        failed += pass.failed;
        failed += pass
            .prints
            .iter()
            .zip(&cold.prints)
            .filter(|(a, b)| a != b)
            .count() as u64;
        passes += 1;
    }
    let usage = Usage::now().since(&before);
    failed += w.verify();

    let metric = |value: f64, unit: &str| {
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ])
    };
    let metrics = if p.trace {
        let mut layers = Layers::default();
        // The instance that ran the timed passes also ran one cold pass.
        w.layers(&tr, passes + 1, &mut layers);
        layers.set("host.cpu_s", usage.cpu_s);
        layers.set("host.runq_wait_s", usage.runq_wait_s);
        layers.set("host.minor_faults", usage.minor_faults);
        layers.set("host.major_faults", usage.major_faults);
        layers.set(
            "host.trace_overhead_frac",
            fast_decile(&traced_s) / fast_decile(&plain_s) - 1.0,
        );
        let declared = spec::per_layer();
        for name in layers.0.keys() {
            assert!(
                declared.iter().any(|m| &m.name == name),
                "{name} is not a declared per-layer metric"
            );
        }
        let path = p.out_dir.join(format!("spans-{name}.jsonl"));
        match tr.dump(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        Json::obj(declared.into_iter().map(|m| {
            (
                m.name.clone(),
                metric(layers.0.get(&m.name).copied().unwrap_or(0.0), m.unit),
            )
        }))
    } else {
        let values = [median(&setup_s), fast_decile(&plain_s), host::peak_rss_mb()];
        Json::obj(
            spec::END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name, metric(v, m.unit))),
        )
    };
    w.teardown();

    Outcome {
        result: Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ]),
        detail: Json::obj([
            ("setup_rep_s", seconds(&setup_s)),
            ("pass_s", seconds(&plain_s)),
        ]),
    }
}
