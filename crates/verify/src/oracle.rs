//! The differential oracle: seven legs, three metamorphic checks, and the
//! micro-architectural invariants, applied to one [`TestCase`].
//!
//! Legs run (every backend is judged against the golden run by
//! [`gp_algorithms::accept`], the workspace's one acceptance rule):
//!
//! 1. the sequential golden engine (Algorithm 1 of the paper), the
//!    reference the other six are judged against,
//! 2. the cycle-level accelerator, run twice to also pin determinism,
//! 3. the shard-parallel engine at 1, 2, and 4 workers — which must be not
//!    just accepted against golden but the **same run** as each other,
//! 4. the incremental engine over the overlay, after every update batch,
//!    against a from-scratch golden run on the updated graph,
//! 5. the turbo engine (speed-first, vertex-order sweeps), run
//!    twice to also pin its determinism,
//! 6. the chaos executor with recovery disabled: clean, the golden run;
//!    under an injected fault, an in-engine detection,
//! 7. golden and turbo over a memory-mapped on-disk container: the same
//!    runs as over the resident graph.
//!
//! Every identity check — determinism, worker invariance, out-of-core —
//! compares whole records through [`same_run`] plus [`same_bits`] on the
//! values, so a field added to a record is compared without a change here.
//!
//! Metamorphic checks: vertex relabeling (values commute with the
//! permutation; for connected components, the partition does), edge-order
//! permutation (builder canonicalization makes the CSR identical), and
//! slice-count invariance (an undersized queue forcing `>= 2` slices must
//! not change the fixed point). Micro-invariant: exact event conservation
//! (`generated == processed + coalesced`) on every accelerator report —
//! single machine, sliced, and merged shard-parallel alike.

use gp_algorithms::engine::{run_sequential, EngineOutput};
use gp_algorithms::{
    accept, same_bits, same_run, with_algorithm, AdsorptionParams, App, AppInputs, DeltaAlgorithm,
    IncrementalAlgorithm,
};
use gp_chaos::{run_chaos, stall_past, ChaosConfig, FaultPlan};
use gp_graph::container::write_container;
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, GraphBuilder, MappedCsr, VertexId};
use gp_mem::integrity::Storable;
use gp_stream::{IncrementalEngine, StreamConfig};
use gp_turbo::{run_turbo, StaleFault, TurboConfig};
use graphpulse_core::{AcceleratorConfig, GraphPulse, RunError};

use crate::case::TestCase;

/// Propagation threshold the oracle's accumulative algorithms run with.
pub const ORACLE_THRESHOLD: f64 = 1e-7;

/// Salt mixed into [`TestCase::aux_seed`] for Adsorption parameters.
const ADS_SALT: u64 = 0xAD50_0000_0000_0001;
/// Salt mixed into [`TestCase::aux_seed`] for metamorphic permutations.
const PERM_SALT: u64 = 0x9E3D_0000_0000_0002;

/// A deliberately injected defect, used to validate that the harness (and
/// its shrinker) actually detects divergences. This is the full
/// [`gp_chaos::FaultKind`] taxonomy: the legacy
/// [`Fault::MergeSkew`] is applied to the parallel leg's output (caught
/// differentially), while the event-, memory-, and backend-layer kinds
/// run through the chaos plane with recovery *disabled*, so the oracle
/// failure is the in-engine watchdog's own detection.
pub use gp_chaos::FaultKind as Fault;

/// One failed oracle check.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which check tripped (stable, log-friendly identifier).
    pub check: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

fn fail(check: &'static str, detail: String) -> Failure {
    Failure { check, detail }
}

/// The metamorphic permutation of a case, derived from its aux seed.
fn metamorphic_perm(case: &TestCase) -> Vec<u32> {
    StdRng::seed_from_u64(case.aux_seed ^ PERM_SALT).permutation(case.vertices.max(1))
}

/// Symmetric closure of `g`: both directions of every edge, same weights.
fn symmetrize(g: &CsrGraph) -> CsrGraph {
    let mut b = GraphBuilder::new(g.num_vertices());
    b.weighted(g.is_weighted());
    b.symmetric(true);
    for v in g.vertices() {
        for e in g.out_edges(v) {
            b.add_edge(v, e.other, e.weight);
        }
    }
    b.build()
}

/// Runs every oracle leg on `case`. `fault` injects a deliberate defect
/// (see [`Fault`]) so the harness's own detection path can be exercised.
///
/// # Errors
///
/// Returns the first failed check.
pub fn run_case(case: &TestCase, fault: Option<Fault>) -> Result<(), Failure> {
    let g = case.build_graph();
    let app = case.algo;
    let params = (app == App::Adsorption)
        .then(|| AdsorptionParams::random(g.num_vertices(), case.aux_seed ^ ADS_SALT));
    let inputs = AppInputs {
        root: case.clamped_root(),
        threshold: ORACLE_THRESHOLD,
        adsorption: params.as_ref(),
    };
    with_algorithm!(app, &inputs, |algo| check_differential(
        case, &g, algo, fault
    ))?;
    check_relabel(app, &inputs, &g, &metamorphic_perm(case))?;
    with_algorithm!(incremental app, &inputs, |algo| check_incremental(case, &g, algo))
        .unwrap_or(Ok(()))?;
    check_edge_order(case, &g)
}

/// Two records that must be the same run: [`same_run`] over the whole
/// record, and [`same_bits`] over its values, whose NaN payloads `{:#?}`
/// prints alike.
fn same_record<T: std::fmt::Debug>(
    what: &str,
    a: &T,
    b: &T,
    values: impl Fn(&T) -> &[f64],
) -> Result<(), String> {
    same_run(what, a, b)?;
    if same_bits(values(a), values(b)) {
        Ok(())
    } else {
        Err(format!("{what} diverged in NaN payload bits"))
    }
}

/// The case's machine for `run_parallel` on `g`: a forced shard count that
/// would not fit a slice falls back to automatic sharding.
fn parallel_config(case: &TestCase, g: &CsrGraph) -> AcceleratorConfig {
    let mut cfg = case.machine.to_config();
    let capacity = cfg.queue.capacity().max(1);
    if cfg.parallel.shards > 0 && g.num_vertices().div_ceil(cfg.parallel.shards) > capacity {
        cfg.parallel.shards = 0;
    }
    cfg
}

/// Golden ≡ accelerator ≡ parallel × {1, 2, 4 workers} ≡ chaos executor,
/// plus determinism, event conservation, and slice-count invariance.
fn check_differential<A>(
    case: &TestCase,
    g: &CsrGraph,
    algo: &A,
    fault: Option<Fault>,
) -> Result<(), Failure>
where
    A: DeltaAlgorithm,
    A::Value: Storable,
{
    let golden = run_sequential(algo, g);

    // Out-of-core (oracle leg 7): the same engines over a mapped on-disk
    // container must be bit-exact with their resident runs.
    check_outofcore(g, algo)?;

    // Chaos executor (oracle leg 6): clean equivalence with golden, and —
    // under an injected fault — the in-engine watchdogs' detection.
    check_chaos(case, g, algo, &golden, fault)?;

    // Turbo engine, twice: functional agreement of the speed-first backend
    // and event conservation, plus its bit-determinism (oracle leg 5).
    let turbo_cfg = TurboConfig::default();
    let t1 = run_turbo(algo, g, &turbo_cfg);
    let t2 = run_turbo(algo, g, &turbo_cfg);
    accept(algo, &t1.values, &golden.values)
        .map_err(|e| fail("differential-turbo", format!("turbo: {e}")))?;
    t1.check_lost_events()
        .map_err(|e| fail("differential-turbo", e))?;
    same_record("two identical turbo runs", &t1, &t2, |o| &o.values)
        .map_err(|e| fail("turbo-determinism", e))?;

    // Cycle-level accelerator, twice: functional agreement + determinism.
    let cfg = case.machine.to_config();
    let run = |label: &str| {
        GraphPulse::new(cfg.clone())
            .run(g, algo)
            .map_err(|e| fail("accelerator-run", format!("{label}: {e}")))
    };
    let first = run("first run")?;
    let second = run("second run")?;
    accept(algo, &first.values, &golden.values)
        .map_err(|e| fail("differential-accelerator", format!("accelerator: {e}")))?;
    same_record("two identical runs", &first, &second, |o| &o.values)
        .map_err(|e| fail("accelerator-determinism", e))?;
    first
        .report
        .check_event_conservation()
        .map_err(|e| fail("event-conservation", format!("accelerator: {e}")))?;

    // Shard-parallel at 1/2/4 workers: within tolerance of golden, exact
    // conservation, and the same run as each other.
    let parallel_cfg = parallel_config(case, g);
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut c = parallel_cfg.clone();
        c.parallel.workers = workers;
        let mut out = GraphPulse::new(c)
            .run_parallel(g, algo)
            .map_err(|e| fail("parallel-run", format!("{workers} workers: {e}")))?;
        if workers == 1 && fault == Some(Fault::MergeSkew) && !out.values.is_empty() {
            // Deliberate defect: skew the first merged value, as a
            // mis-ordered shard-0 inbox merge would.
            out.values[0] = if out.values[0].is_finite() {
                out.values[0] + 1.0
            } else {
                0.0
            };
        }
        accept(algo, &out.values, &golden.values).map_err(|e| {
            fail(
                "differential-parallel",
                format!("parallel ({workers} workers): {e}"),
            )
        })?;
        out.report
            .check_event_conservation()
            .map_err(|e| fail("event-conservation", format!("parallel merge: {e}")))?;
        outcomes.push((workers, out));
    }
    let (_, base) = &outcomes[0];
    for (workers, out) in &outcomes[1..] {
        same_record(&format!("1 worker vs {workers} workers"), base, out, |o| {
            &o.values
        })
        .map_err(|e| fail("parallel-worker-invariance", e))?;
    }

    // Slice-count invariance: shrink the queue until the graph needs >= 2
    // slices; the fixed point must not move.
    let row_slots = cfg.queue.bins * cfg.queue.cols;
    if g.num_vertices() >= 2 * row_slots {
        let mut sliced = cfg.clone();
        sliced.queue.rows = g.num_vertices().div_ceil(2 * row_slots);
        let out = GraphPulse::new(sliced)
            .run(g, algo)
            .map_err(|e| fail("accelerator-run", format!("sliced run: {e}")))?;
        if out.report.slices < 2 {
            return Err(fail(
                "metamorphic-slice-count",
                format!(
                    "undersized queue still ran {} slice(s) for {} vertices",
                    out.report.slices,
                    g.num_vertices()
                ),
            ));
        }
        accept(algo, &out.values, &golden.values).map_err(|e| {
            fail(
                "metamorphic-slice-count",
                format!("{} slices: {e}", out.report.slices),
            )
        })?;
        out.report
            .check_event_conservation()
            .map_err(|e| fail("event-conservation", format!("sliced run: {e}")))?;
    }
    Ok(())
}

/// The out-of-core oracle leg (`differential-outofcore`): the case's graph
/// is serialized to an on-disk container, reopened through [`MappedCsr`]
/// with full checksum verification, and the golden engine and turbo are
/// re-run against the mapping. Because the mapped segments are
/// bit-identical to the resident arrays and both engines are generic over
/// `GraphView`, the comparison is **bit-exact** — values and event
/// counters — not merely within tolerance; any divergence means the
/// container codec, the mapping, or its accessors corrupted adjacency.
fn check_outofcore<A>(g: &CsrGraph, algo: &A) -> Result<(), Failure>
where
    A: DeltaAlgorithm,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    struct Cleanup(std::path::PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    let path = std::env::temp_dir().join(format!(
        "gp-oracle-ooc-{}-{}.gpc",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _cleanup = Cleanup(path.clone());
    write_container(g, &path)
        .map_err(|e| fail("differential-outofcore", format!("write failed: {e}")))?;
    let mapped = MappedCsr::open_verified(&path)
        .map_err(|e| fail("differential-outofcore", format!("open failed: {e}")))?;
    if mapped.to_csr() != *g {
        return Err(fail(
            "differential-outofcore",
            "re-materialized container is not the resident graph".into(),
        ));
    }

    check_mapped(algo, g, &mapped).map_err(|e| fail("differential-outofcore", e))
}

/// Checks that the golden engine and turbo over a memory-mapped container
/// are the same runs as on the fully-resident graph: value bits and every
/// field of each outcome. The oracle's out-of-core leg and `container
/// --check-resident` both call it.
///
/// # Errors
///
/// Returns which engine diverged and the first line of its record that
/// differs.
pub fn check_mapped<A: DeltaAlgorithm>(
    algo: &A,
    resident: &CsrGraph,
    mapped: &MappedCsr,
) -> Result<(), String> {
    same_record(
        "golden over the mapped container vs its resident run",
        &run_sequential(algo, mapped),
        &run_sequential(algo, resident),
        |o| &o.values,
    )?;
    let tcfg = TurboConfig::default();
    same_record(
        "turbo over the mapped container vs its resident run",
        &run_turbo(algo, mapped, &tcfg),
        &run_turbo(algo, resident, &tcfg),
        |o| &o.values,
    )
}

/// The chaos-plane oracle leg, against the case's `golden` run. With no
/// fault (or the differential-only [`Fault::MergeSkew`]): [`run_chaos`]
/// with detection enabled and recovery disabled must be the golden run
/// ([`ChaosOutcome::check_golden`](gp_chaos::ChaosOutcome::check_golden))
/// with no watchdog firing (pinning the detectors' false-positive rate at
/// zero). With an injected chaos-plane fault: recovery stays disabled, so
/// a fired fault must surface as an in-engine detection (returned as the
/// oracle failure the shrinker minimizes); a fault that never fired or
/// self-healed must leave the result at the golden fixed point — silent
/// corruption is the one unacceptable outcome.
fn check_chaos<A>(
    case: &TestCase,
    g: &CsrGraph,
    algo: &A,
    golden: &EngineOutput,
    fault: Option<Fault>,
) -> Result<(), Failure>
where
    A: DeltaAlgorithm,
    A::Value: Storable,
{
    let cfg = ChaosConfig {
        max_retries: 0,
        degrade: false,
        ..ChaosConfig::default()
    };

    let clean = run_chaos(algo, g, None, &cfg);
    if let Some(d) = clean.detections.first() {
        return Err(fail(
            "chaos-false-positive",
            format!(
                "watchdog fired on a fault-free run: {} ({})",
                d.detector.label(),
                d.message
            ),
        ));
    }
    clean
        .check_golden(golden)
        .map_err(|e| fail("differential-chaos", e))?;

    // A fault that never fired, or healed, must leave the fixed point
    // untouched: silent corruption is the one unacceptable outcome.
    let (leg, values) = match fault {
        Some(
            kind @ (Fault::DropEvent | Fault::DuplicateEvent | Fault::DelayEvent | Fault::BitFlip),
        ) => {
            let plan = FaultPlan::transient(kind, case.aux_seed);
            let out = run_chaos(algo, g, Some(plan), &cfg);
            if let Some(d) = out.detections.first() {
                return Err(fail(
                    "chaos-detection",
                    format!(
                        "injected {kind} detected by {}: {}",
                        d.detector.label(),
                        d.message
                    ),
                ));
            }
            // The trigger landed beyond the run (tiny case).
            (format!("undetected {kind}"), out.values)
        }
        Some(Fault::ShardStall) => {
            let gp = GraphPulse::new(parallel_config(case, g));
            let clean_epochs = gp
                .run_parallel(g, algo)
                .map_err(|e| fail("parallel-run", format!("clean run for stall leg: {e}")))?
                .epochs;
            match gp.run_parallel_chaos(g, algo, stall_past(clean_epochs)) {
                Err(e @ RunError::EpochBudget(_)) => {
                    let detail = format!("injected shard-stall detected: {e}");
                    return Err(fail("chaos-detection", detail));
                }
                Err(e) => return Err(fail("parallel-run", format!("stalled run: {e}"))),
                Ok(out) => ("undetected shard-stall".to_string(), out.values),
            }
        }
        Some(Fault::WheelStale) => {
            let tcfg = TurboConfig::default();
            let clean_rounds = run_turbo(algo, g, &tcfg).rounds;
            let faulted = TurboConfig {
                fault: Some(StaleFault {
                    after_rounds: clean_rounds.saturating_sub(2).max(1),
                    pick: case.aux_seed % 8,
                }),
            };
            let out = run_turbo(algo, g, &faulted);
            if let Err(msg) = out.check_lost_events() {
                return Err(fail(
                    "chaos-detection",
                    format!("injected wheel-stale detected: {msg}"),
                ));
            }
            // The run had converged by the trigger sweep, so there was no
            // bit to clear.
            ("unfired wheel-stale".to_string(), out.values)
        }
        Some(Fault::MergeSkew) | None => return Ok(()),
    };
    accept(algo, &values, &golden.values)
        .map_err(|e| fail("chaos-silent-corruption", format!("{leg}: {e}")))?;
    Ok(())
}

/// Vertex-relabeling invariance: running `app` — rooted at the permuted
/// root — on the isomorphic graph must commute with the permutation, by
/// value for every application except the two singled out below.
fn check_relabel(app: App, inputs: &AppInputs, g: &CsrGraph, perm: &[u32]) -> Result<(), Failure> {
    let symmetric;
    let (g, as_partition) = match app {
        // No relabel leg: the per-vertex parameters cannot be permuted
        // alongside the vertices from outside the algorithm.
        App::Adsorption => return Ok(()),
        // Component labels are vertex ids, so relabeling changes the
        // values; what must be invariant is the partition itself — but
        // only on the symmetric closure. On a directed graph the label
        // is "largest id reaching v", and whether two vertices share it
        // depends on which reacher carries the largest id, which a
        // relabeling legitimately changes (e.g. a lone edge u -> v
        // merges labels iff id(u) > id(v)). Symmetrizing commutes with
        // relabeling and makes the partition the WCC partition, which
        // is permutation-invariant.
        App::Cc => {
            symmetric = symmetrize(g);
            (&symmetric, true)
        }
        _ => (g, false),
    };
    let relabeled_inputs = AppInputs {
        root: VertexId::new(perm[inputs.root.index()]),
        ..*inputs
    };
    let golden = app.golden_values(inputs, g);
    let relabeled = app.golden_values(&relabeled_inputs, &g.relabel(perm));
    if as_partition {
        // label(v) == label(w)  <=>  label'(perm(v)) == label'(perm(w)):
        // the value map golden -> relabeled must be a bijection.
        let mut forward: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut backward: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for v in 0..golden.len() {
            let a = golden[v].to_bits();
            let b = relabeled[perm[v] as usize].to_bits();
            if *forward.entry(a).or_insert(b) != b || *backward.entry(b).or_insert(a) != a {
                return Err(fail(
                    "metamorphic-relabel",
                    format!(
                        "partition differs at vertex {v}: label {} maps to {} \
                         inconsistently",
                        golden[v], relabeled[perm[v] as usize]
                    ),
                ));
            }
        }
        return Ok(());
    }
    let pulled: Vec<f64> = (0..golden.len())
        .map(|v| relabeled[perm[v] as usize])
        .collect();
    with_algorithm!(app, inputs, |algo| accept(algo, &pulled, &golden))
        .map_err(|e| fail("metamorphic-relabel", format!("relabeled run: {e}")))?;
    Ok(())
}

/// Edge-order-permutation invariance: the builder canonicalizes adjacency,
/// so a shuffled edge list must produce the *identical* CSR (and therefore
/// identical behavior everywhere downstream).
fn check_edge_order(case: &TestCase, g: &CsrGraph) -> Result<(), Failure> {
    let mut shuffled = case.clone();
    StdRng::seed_from_u64(case.aux_seed ^ PERM_SALT).shuffle(&mut shuffled.edges);
    let g2 = shuffled.build_graph();
    if g2 != *g {
        return Err(fail(
            "metamorphic-edge-order",
            format!(
                "shuffled edge list built a different CSR \
                 ({} vs {} edges after canonicalization)",
                g2.num_edges(),
                g.num_edges()
            ),
        ));
    }
    Ok(())
}

/// Incremental-over-overlay ≡ from-scratch golden after every update
/// batch, plus a final cross-check against the accelerator on the fully
/// updated graph.
fn check_incremental<A>(case: &TestCase, g: &CsrGraph, algo: &A) -> Result<(), Failure>
where
    A: IncrementalAlgorithm + Clone,
{
    let (mut engine, _) =
        IncrementalEngine::new(algo.clone(), g.clone(), StreamConfig::golden(0.25))
            .map_err(|e| fail("incremental-run", format!("initial run: {e}")))?;
    accept(algo, &engine.values(), &run_sequential(algo, g).values).map_err(|e| {
        fail(
            "differential-incremental",
            format!("initial convergence: {e}"),
        )
    })?;
    for (i, batch) in case.update_batches().into_iter().enumerate() {
        engine
            .apply_batch(&batch)
            .map_err(|e| fail("incremental-run", format!("batch {i}: {e}")))?;
        let scratch = run_sequential(algo, &engine.graph().to_csr());
        accept(algo, &engine.values(), &scratch.values).map_err(|e| {
            let leg = format!("after batch {i} ({} updates): {e}", batch.len());
            fail("differential-incremental", leg)
        })?;
    }
    // Tie the incremental leg back to the cycle-level model: the
    // accelerator on the final graph must agree with the warm state.
    let final_graph = engine.graph().to_csr();
    let out = GraphPulse::new(case.machine.to_config())
        .run(&final_graph, algo)
        .map_err(|e| fail("accelerator-run", format!("post-update run: {e}")))?;
    accept(algo, &out.values, &engine.values()).map_err(|e| {
        fail(
            "differential-incremental",
            format!("accelerator on updated graph: {e}"),
        )
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::generate;

    #[test]
    fn clean_cases_pass_every_leg() {
        for seed in [1u64, 2, 3, 4, 5, 6] {
            let case = generate(seed);
            run_case(&case, None)
                .unwrap_or_else(|f| panic!("seed {seed} ({}) failed: {f}", case.algo.name()));
        }
    }

    #[test]
    fn injected_merge_skew_is_detected() {
        for seed in [1u64, 2, 3] {
            let case = generate(seed);
            let failure = run_case(&case, Some(Fault::MergeSkew))
                .expect_err("fault injection must be detected");
            assert_eq!(failure.check, "differential-parallel");
            if seed == 1 {
                // The whole detail, as the fuzz and shrinker logs print it.
                assert_eq!(
                    failure.detail,
                    "parallel (1 workers): max |diff| 1e0 > tolerance 0e0 \
                     (first at vertex 0: got 41, golden 40)"
                );
            }
        }
    }

    /// A NaN difference is never within tolerance, however loose: here a
    /// PageRank at threshold 0.1, whose tolerance is 1e3.
    #[test]
    fn a_nan_value_fails_compare_values() {
        let inputs = AppInputs {
            root: VertexId::new(0),
            threshold: 0.1,
            adsorption: None,
        };
        let err = with_algorithm!(App::PageRank, &inputs, |pr| {
            accept(pr, &[1.0, f64::NAN], &[1.0, 2.0])
        })
        .expect_err("a NaN value must fail the tolerance check");
        assert!(err.contains("tolerance 1e3"), "{err}");
        assert!(err.contains("first at vertex 1"), "{err}");
    }

    #[test]
    fn fault_parse_round_trip() {
        for kind in Fault::ALL {
            assert_eq!(Fault::parse(kind.label()), Some(kind));
        }
        assert_eq!(Fault::parse("merge-order"), Some(Fault::MergeSkew));
        assert_eq!(Fault::parse("nope"), None);
    }

    /// Every chaos-plane fault kind is caught — as an in-engine detection
    /// (`chaos-detection`) on the seeds where the trigger fires, and never
    /// as silent corruption anywhere.
    #[test]
    fn injected_chaos_faults_are_detected_in_engine() {
        for kind in [
            Fault::DropEvent,
            Fault::DuplicateEvent,
            Fault::DelayEvent,
            Fault::BitFlip,
            Fault::ShardStall,
            Fault::WheelStale,
        ] {
            let mut detected = 0;
            for seed in 1u64..=6 {
                let case = generate(seed);
                // An Ok(()) here is legal: the trigger never fired or the
                // fault healed before the fixed point.
                if let Err(f) = run_case(&case, Some(kind)) {
                    assert_eq!(
                        f.check, "chaos-detection",
                        "{kind} on seed {seed} failed the wrong check: {f}"
                    );
                    detected += 1;
                }
            }
            assert!(detected > 0, "{kind} was never detected across 6 seeds");
        }
    }
}
