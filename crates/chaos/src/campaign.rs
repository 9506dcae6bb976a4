//! The chaos campaign: every fault kind × backend, detect → recover →
//! verify against a fault-free reference.
//!
//! [`run_campaign`] is fully determined by its seed: graphs, fault plans,
//! and every recorded metric are derived from it, and no wall-clock data
//! enters the report — two runs with the same seed are equal. The `chaos`
//! bench binary renders the report as `BENCH_chaos.json` and holds it to
//! that record's schema, which is where the campaign's verdict lives.

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{
    accept, max_abs_diff, with_algorithm, AdsorptionParams, App, AppInputs, DeltaAlgorithm,
};
use gp_graph::generators::{erdos_renyi, WeightMode};
use gp_graph::{CsrGraph, VertexId};
use gp_mem::integrity::{mix64, Storable};
use gp_turbo::StaleFault;
use graphpulse_core::{AcceleratorConfig, GraphPulse, ParallelConfig};

use crate::engine::{run_chaos, ChaosConfig, ChaosOutcome};
use crate::guard::{run_parallel_guarded, run_turbo_guarded, GuardedOutcome};
use crate::plan::{stall_past, FaultKind, FaultPlan};

/// One campaign scenario's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRecord {
    /// Injected fault kind.
    pub fault: FaultKind,
    /// Algorithm label (`pr`, `ads`, `sssp`, `bfs`, `cc`, `sswp`).
    pub algo: &'static str,
    /// `transient` (fires once) or `persistent` (re-fires every retry).
    pub mode: &'static str,
    /// Backend the fault was injected into.
    pub backend: &'static str,
    /// Watchdog firings observed.
    pub detected: u32,
    /// Label of the first detector that fired (empty when none).
    pub detector: String,
    /// Epochs between injection and first detection.
    pub latency_epochs: u64,
    /// How the run recovered: `rollback`, `quarantine`, `retry`,
    /// `degrade`, or `recompute` (differential kinds).
    pub recovery: &'static str,
    /// Rollbacks performed (chaos-executor scenarios).
    pub rollbacks: u32,
    /// Events whose processing was discarded by recovery.
    pub wasted_events: u64,
    /// Checkpoint traffic in line-rounded bytes.
    pub checkpoint_bytes: u64,
    /// Max |recovered − reference| over all vertices.
    pub max_diff: f64,
    /// Whether the recovered result matched the fault-free reference by
    /// [`accept`].
    pub result_ok: bool,
}

impl CampaignRecord {
    /// A scenario with nothing observed yet: no detection, no recovery
    /// and none of the chaos executor's telemetry. Scenarios decided
    /// outside the executor fill in what they saw.
    fn blank(
        fault: FaultKind,
        algo: &'static str,
        persistent: bool,
        backend: &'static str,
    ) -> CampaignRecord {
        CampaignRecord {
            fault,
            algo,
            mode: if persistent {
                "persistent"
            } else {
                "transient"
            },
            backend,
            detected: 0,
            detector: String::new(),
            latency_epochs: 0,
            recovery: "none",
            rollbacks: 0,
            wasted_events: 0,
            checkpoint_bytes: 0,
            max_diff: 0.0,
            result_ok: false,
        }
    }

    /// The chaos executor's run of `rule` under the fault `plan`, judged
    /// against the fault-free `reference` by [`accept`].
    fn from_chaos<A: DeltaAlgorithm>(
        rule: &A,
        plan: FaultPlan,
        algo: &'static str,
        out: &ChaosOutcome,
        reference: &[f64],
    ) -> CampaignRecord {
        let first = out.detections.first();
        let diff = max_abs_diff(&out.values, reference);
        CampaignRecord {
            detected: out.detections.len() as u32,
            detector: first.map_or(String::new(), |d| d.detector.label().to_string()),
            latency_epochs: first.map_or(0, |d| d.latency_epochs),
            recovery: if out.degraded {
                "degrade"
            } else if out.quarantined.is_empty() {
                "rollback"
            } else {
                "quarantine"
            },
            rollbacks: out.rollbacks,
            wasted_events: out.wasted_events,
            checkpoint_bytes: out.checkpoint_bytes,
            max_diff: diff,
            result_ok: out.unrecovered.is_none() && accept(rule, &out.values, reference).is_ok(),
            ..Self::blank(plan.kind, algo, plan.repeats == u32::MAX, "chaos-exec")
        }
    }

    /// A guarded backend run of `rule` whose watchdog is `detector`, judged
    /// against the fault-free `reference` by [`accept`]. A persistent fault
    /// fires on every attempt, so the only right way out of it is
    /// degradation.
    fn from_guarded<A: DeltaAlgorithm>(
        rule: &A,
        blank: CampaignRecord,
        detector: &str,
        out: &GuardedOutcome,
        reference: &[f64],
    ) -> CampaignRecord {
        let diff = max_abs_diff(&out.values, reference);
        CampaignRecord {
            detected: out.detections.len() as u32,
            detector: if out.detections.is_empty() {
                String::new()
            } else {
                detector.to_string()
            },
            recovery: if out.degraded { "degrade" } else { "retry" },
            max_diff: diff,
            result_ok: (out.degraded || blank.mode == "transient")
                && accept(rule, &out.values, reference).is_ok(),
            ..blank
        }
    }
}

/// Fault-free checkpointing overhead for one algorithm: the chaos
/// executor with detection + checkpointing enabled versus the plain
/// golden engine.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRecord {
    /// Algorithm label.
    pub algo: &'static str,
    /// Events processed (identical to the golden engine by construction).
    pub events_processed: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Words copied into checkpoints.
    pub checkpoint_words: u64,
    /// Line-rounded checkpoint traffic in bytes.
    pub checkpoint_bytes: u64,
    /// Whether the fault-free chaos run was the golden run
    /// ([`ChaosOutcome::check_golden`]) with no watchdog firing.
    pub bitexact: bool,
}

/// Everything one campaign run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The seed that determined the whole campaign.
    pub seed: u64,
    /// One record per (fault kind, algorithm, mode) scenario.
    pub records: Vec<CampaignRecord>,
    /// Fault-free overhead per algorithm.
    pub overhead: Vec<OverheadRecord>,
}

/// The campaign's accelerator configuration: the small test machine with
/// two forced shards so stall injection always has a cross-shard exchange
/// to disturb.
fn campaign_machine() -> GraphPulse {
    GraphPulse::new(AcceleratorConfig {
        parallel: ParallelConfig {
            workers: 2,
            epoch_cycles: 128,
            shards: 2,
        },
        ..AcceleratorConfig::small_test()
    })
}

/// Runs the event/memory-layer scenarios plus the backend-specific ones
/// for a single algorithm, appending to `report`.
fn algo_scenarios<A>(report: &mut CampaignReport, algo: &A, app: App, graph: &CsrGraph)
where
    A: DeltaAlgorithm,
    A::Value: Storable,
{
    let (seed, name) = (report.seed, app.name());
    let reference = run_sequential(algo, graph);

    // Fault-free overhead: checkpointing + detection enabled, no fault.
    let clean_cfg = ChaosConfig::default();
    let clean = run_chaos(algo, graph, None, &clean_cfg);
    report.overhead.push(OverheadRecord {
        algo: name,
        events_processed: clean.events.processed,
        epochs: clean.epochs,
        checkpoints: clean.checkpoints,
        checkpoint_words: clean.checkpoint_words,
        checkpoint_bytes: clean.checkpoint_bytes,
        bitexact: clean.check_golden(&reference).is_ok() && clean.detections.is_empty(),
    });

    // Event-layer faults, transient: cured by rollback-and-retry.
    for kind in [
        FaultKind::DropEvent,
        FaultKind::DuplicateEvent,
        FaultKind::DelayEvent,
    ] {
        let plan = FaultPlan::transient(kind, seed ^ mix64(kind.label().len() as u64));
        let out = run_chaos(algo, graph, Some(plan), &clean_cfg);
        report.records.push(CampaignRecord::from_chaos(
            algo,
            plan,
            name,
            &out,
            &reference.values,
        ));
    }

    // Memory-layer fault, persistent (stuck-at): detected by the scrub,
    // localized, and cured by poisoned-region quarantine.
    let flip_plan = FaultPlan::persistent(FaultKind::BitFlip, seed ^ 0xB17);
    let flip_cfg = ChaosConfig {
        verify_every: 2, // nonzero detection latency is part of the story
        ..ChaosConfig::default()
    };
    let out = run_chaos(algo, graph, Some(flip_plan), &flip_cfg);
    report.records.push(CampaignRecord::from_chaos(
        algo,
        flip_plan,
        name,
        &out,
        &reference.values,
    ));

    // Shard stall, transient: caught by the epoch-budget watchdog,
    // recovered by retry.
    let gp = campaign_machine();
    let clean_parallel = gp
        .run_parallel(graph, algo)
        .expect("clean parallel run must succeed");
    let out = run_parallel_guarded(&gp, algo, graph, stall_past(clean_parallel.epochs), 1, 3)
        .unwrap_or_else(|e| panic!("parallel scenario failed to run: {e}"));
    report.records.push(CampaignRecord::from_guarded(
        algo,
        CampaignRecord::blank(FaultKind::ShardStall, name, false, "parallel"),
        "epoch-budget",
        &out,
        &reference.values,
    ));

    // Turbo scheduling-bit corruption, transient: a cleared `active` bit
    // always loses its delta, so the lost-event check catches it and a
    // retry recovers.
    let out = run_turbo_guarded(algo, graph, Some(STALE), 1, 3);
    report.records.push(CampaignRecord::from_guarded(
        algo,
        CampaignRecord::blank(FaultKind::WheelStale, name, false, "turbo"),
        "lost-event",
        &out,
        &reference.values,
    ));

    // Merge-order skew: the legacy fault. It corrupts a backend's output
    // value, which no single-engine watchdog can see — detection is
    // differential (cross-backend comparison) and recovery is a golden
    // recompute. This is the one kind detected outside the engine, kept
    // in the campaign so the taxonomy stays complete. The victim is the
    // first vertex whose value an additive skew can actually change (the
    // root's value may be infinite — SSWP capacity — where `+1.0` is
    // absorbed).
    let mut skewed = clean_parallel.values.clone();
    for v in skewed.iter_mut() {
        let bent = if v.is_finite() { *v + 1.0 } else { 0.0 };
        if bent != *v {
            *v = bent;
            break;
        }
    }
    let detected = accept(algo, &skewed, &reference.values).is_err();
    let recomputed = run_sequential(algo, graph);
    report.records.push(CampaignRecord {
        detected: u32::from(detected),
        detector: "differential".to_string(),
        recovery: "recompute",
        max_diff: max_abs_diff(&recomputed.values, &reference.values),
        result_ok: detected && accept(algo, &recomputed.values, &reference.values).is_ok(),
        ..CampaignRecord::blank(FaultKind::MergeSkew, name, false, "parallel")
    });
}

/// The campaign's turbo upset: after the first sweep, when the seeds'
/// out-neighbours are pending on every algorithm.
const STALE: StaleFault = StaleFault {
    after_rounds: 1,
    pick: 0,
};

/// Persistent-fault degradation scenarios, run once (on SSSP) to pin the
/// exhausted-retries path for every backend family.
fn degradation_scenarios<A>(report: &mut CampaignReport, algo: &A, app: App, graph: &CsrGraph)
where
    A: DeltaAlgorithm,
    A::Value: Storable,
{
    let (seed, name) = (report.seed, app.name());
    let reference = run_sequential(algo, graph);
    let cfg = ChaosConfig {
        max_retries: 2,
        ..ChaosConfig::default()
    };

    // Persistent drop: re-fires on every replay, exhausts the rollback
    // budget, degrades to the golden engine from the last checkpoint.
    let plan = FaultPlan::persistent(FaultKind::DropEvent, seed ^ 0xD0D);
    let out = run_chaos(algo, graph, Some(plan), &cfg);
    report.records.push(CampaignRecord::from_chaos(
        algo,
        plan,
        name,
        &out,
        &reference.values,
    ));

    // Persistent shard stall: every retry trips the watchdog, the guard
    // degrades to the golden engine.
    let gp = campaign_machine();
    let clean_epochs = gp
        .run_parallel(graph, algo)
        .expect("clean parallel run must succeed")
        .epochs;
    let out = run_parallel_guarded(&gp, algo, graph, stall_past(clean_epochs), u32::MAX, 2)
        .expect("guarded parallel must not hit config errors");
    report.records.push(CampaignRecord::from_guarded(
        algo,
        CampaignRecord::blank(FaultKind::ShardStall, name, true, "parallel"),
        "epoch-budget",
        &out,
        &reference.values,
    ));

    // Persistent turbo corruption: every attempt loses a delta, the guard
    // degrades to the golden engine.
    let out = run_turbo_guarded(algo, graph, Some(STALE), u32::MAX, 2);
    report.records.push(CampaignRecord::from_guarded(
        algo,
        CampaignRecord::blank(FaultKind::WheelStale, name, true, "turbo"),
        "lost-event",
        &out,
        &reference.values,
    ));
}

/// Runs the full campaign: every fault kind × all six algorithms
/// (transient scenarios) plus persistent degradation/quarantine
/// scenarios, all deterministically derived from `seed`.
#[must_use]
pub fn run_campaign(seed: u64) -> CampaignReport {
    let n = 96;
    let graph = erdos_renyi(n, 420, WeightMode::Uniform(0.5, 4.0), mix64(seed));
    let ads_graph = gp_algorithms::normalize_inbound(&graph);
    let params = AdsorptionParams::random(n, mix64(seed ^ 0xAD5));
    let inputs = AppInputs {
        root: VertexId::new(0),
        threshold: 1e-9,
        adsorption: Some(&params),
    };

    let mut report = CampaignReport {
        seed,
        records: Vec::new(),
        overhead: Vec::new(),
    };
    for app in App::ALL {
        let g = if app == App::Adsorption {
            &ads_graph
        } else {
            &graph
        };
        with_algorithm!(app, &inputs, |algo| algo_scenarios(
            &mut report,
            algo,
            app,
            g
        ));
    }
    let app = App::Sssp;
    with_algorithm!(app, &inputs, |algo| degradation_scenarios(
        &mut report,
        algo,
        app,
        &graph
    ));
    report
}
