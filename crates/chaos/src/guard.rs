//! Guarded backend wrappers: run a fast backend under its in-engine
//! watchdog, retry on detection, and degrade to the golden engine when
//! retries are exhausted.
//!
//! These are the graceful-degradation half of the recovery story for the
//! backend-specific fault kinds: [`FaultKind::WheelStale`](crate::FaultKind)
//! is caught by the turbo engine's lost-event check and
//! [`FaultKind::ShardStall`](crate::FaultKind) by the parallel engine's
//! epoch-budget watchdog ([`RunError::EpochBudget`]). Both wrappers share
//! the transient-vs-persistent contract of [`FaultPlan::repeats`](crate::FaultPlan::repeats): the
//! injected fault re-arms on each retry until it has fired `repeats`
//! times, so a transient fault is cured by retrying and a persistent one
//! falls through to the golden engine — never returning a wrong result
//! silently, because a faulted attempt is only accepted if its watchdog
//! comes back clean, and a clean watchdog implies no event was lost.

use gp_algorithms::engine::run_sequential;
use gp_algorithms::DeltaAlgorithm;
use gp_graph::GraphView;
use gp_turbo::{run_turbo, StaleFault, TurboConfig};
use graphpulse_core::{GraphPulse, ParallelChaos, RunError};

/// Result of a guarded backend run.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedOutcome {
    /// Final vertex values (`f64` projection). From the guarded backend
    /// when an attempt passed its watchdog, from the golden engine when
    /// degraded.
    pub values: Vec<f64>,
    /// Watchdog diagnoses, one per failed attempt.
    pub detections: Vec<String>,
    /// Attempts executed on the guarded backend (successful one included;
    /// the golden fallback is not an attempt).
    pub attempts: u32,
    /// Whether the run fell back to the golden engine.
    pub degraded: bool,
}

/// The retry-then-degrade loop both guards run. `attempt(armed)` executes
/// the backend once — with the injected fault armed for the first
/// `repeats` attempts — and answers with the values of an attempt whose
/// watchdog came back clean, the watchdog's diagnosis (the attempt is
/// discarded and retried), or a [`RunError`] that is not a detection and
/// ends the run. After `max_retries` failed attempts the run degrades to
/// [`run_sequential`].
fn guard<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    repeats: u32,
    max_retries: u32,
    mut attempt: impl FnMut(bool) -> Result<Result<Vec<f64>, String>, RunError>,
) -> Result<GuardedOutcome, RunError> {
    let mut detections = Vec::new();
    let attempts = max_retries.max(1);
    for n in 1..=attempts {
        match attempt(n <= repeats)? {
            Ok(values) => {
                return Ok(GuardedOutcome {
                    values,
                    detections,
                    attempts: n,
                    degraded: false,
                })
            }
            Err(diagnosis) => detections.push(diagnosis),
        }
    }
    Ok(GuardedOutcome {
        values: run_sequential(algo, graph).values,
        detections,
        attempts,
        degraded: true,
    })
}

/// Runs the turbo backend under the lost-event watchdog, injecting
/// `fault` for the first `repeats` attempts. Each attempt is checked with
/// [`gp_turbo::TurboOutcome::check_lost_events`]; a failed check discards
/// the attempt and retries (the fault re-fires while it has firings
/// left). After `max_retries` failed attempts the run degrades to
/// [`run_sequential`].
pub fn run_turbo_guarded<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    fault: Option<StaleFault>,
    repeats: u32,
    max_retries: u32,
) -> GuardedOutcome {
    guard(algo, graph, repeats, max_retries, |armed| {
        let tcfg = TurboConfig {
            fault: fault.filter(|_| armed),
        };
        let out = run_turbo(algo, graph, &tcfg);
        Ok(out.check_lost_events().map(|()| out.values))
    })
    .expect("a turbo attempt raises no RunError")
}

/// Runs the shard-parallel backend under the epoch-budget convergence
/// watchdog, injecting the stall of `chaos` for the first `repeats`
/// attempts. A watchdog abort ([`RunError::EpochBudget`]) discards the
/// attempt and retries; after `max_retries` failed attempts the run
/// degrades to [`run_sequential`].
///
/// # Errors
///
/// Propagates non-watchdog errors ([`RunError::InvalidConfig`],
/// [`RunError::CycleLimit`]) unchanged — those are configuration
/// problems, not injected faults.
pub fn run_parallel_guarded<A, G>(
    gp: &GraphPulse,
    algo: &A,
    graph: &G,
    chaos: ParallelChaos,
    repeats: u32,
    max_retries: u32,
) -> Result<GuardedOutcome, RunError>
where
    A: DeltaAlgorithm,
    G: GraphView + Sync,
{
    guard(algo, graph, repeats, max_retries, |armed| {
        let plan = ParallelChaos {
            stall: chaos.stall.filter(|_| armed),
            ..chaos
        };
        match gp.run_parallel_chaos(graph, algo, plan) {
            Ok(out) => Ok(Ok(out.values)),
            Err(watchdog @ RunError::EpochBudget(_)) => Ok(Err(watchdog.to_string())),
            Err(other) => Err(other),
        }
    })
}
