//! End-to-end tests of the fault-injection plane: clean equivalence,
//! detect-and-recover per fault kind, quarantine, degradation, and the
//! full campaign's determinism.

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{max_abs_diff, Bfs, ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp};
use gp_chaos::{
    run_campaign, run_chaos, ChaosConfig, ChaosOutcome, Detector, FaultKind, FaultPlan,
};
use gp_graph::generators::{erdos_renyi, WeightMode};
use gp_graph::{CsrGraph, VertexId};
use gp_mem::integrity::{BitUpset, Storable};

fn graph(seed: u64) -> CsrGraph {
    erdos_renyi(72, 300, WeightMode::Uniform(0.5, 4.0), seed)
}

/// Clean chaos run must be the golden engine, bit for bit — values and
/// every event counter.
#[test]
fn fault_free_chaos_is_bit_exact_with_golden() {
    let g = graph(7);
    fn check<A: DeltaAlgorithm>(algo: &A, g: &CsrGraph)
    where
        A::Value: Storable,
    {
        let golden = run_sequential(algo, g);
        let chaos = run_chaos(algo, g, None, &ChaosConfig::default());
        assert_eq!(chaos.values, golden.values);
        assert_eq!(chaos.events.processed, golden.events_processed);
        assert_eq!(chaos.events.generated, golden.events_generated);
        assert!(chaos.detections.is_empty());
        assert_eq!(chaos.rollbacks, 0);
        assert!(!chaos.degraded);
        assert!(chaos.checkpoints >= 1, "initial checkpoint always taken");
        assert!(chaos.checkpoint_bytes > 0);
    }
    check(&PageRankDelta::new(0.85, 1e-9), &g);
    check(&Sssp::new(VertexId::new(0)), &g);
    check(&Bfs::new(VertexId::new(0)), &g);
    check(&ConnectedComponents::new(), &g);
}

fn expect_detect_and_rollback(kind: FaultKind, seed: u64) -> ChaosOutcome {
    let g = graph(11);
    let algo = Sssp::new(VertexId::new(0));
    let golden = run_sequential(&algo, &g);
    let out = run_chaos(
        &algo,
        &g,
        Some(FaultPlan::transient(kind, seed)),
        &ChaosConfig::default(),
    );
    assert!(
        !out.detections.is_empty(),
        "{kind}: fault must be detected in-engine"
    );
    assert_eq!(
        out.detections[0].detector,
        Detector::EventConservation,
        "{kind}: event-layer faults are caught by the conservation watchdog"
    );
    assert!(out.rollbacks >= 1, "{kind}: recovery must roll back");
    assert!(!out.degraded, "{kind}: a transient fault must not degrade");
    assert!(out.unrecovered.is_none());
    assert_eq!(
        out.values, golden.values,
        "{kind}: recovered result must be bit-exact"
    );
    assert!(out.wasted_events > 0 || out.detections[0].epoch == 0);
    out
}

#[test]
fn transient_drop_is_detected_and_rolled_back() {
    expect_detect_and_rollback(FaultKind::DropEvent, 3);
}

#[test]
fn transient_duplicate_is_detected_and_rolled_back() {
    let out = expect_detect_and_rollback(FaultKind::DuplicateEvent, 5);
    assert!(
        out.detections[0].message.contains("absorbed more events"),
        "duplicates surface as a surplus: {}",
        out.detections[0].message
    );
}

#[test]
fn transient_delay_is_detected_and_rolled_back() {
    let out = expect_detect_and_rollback(FaultKind::DelayEvent, 9);
    assert!(
        out.detections[0].message.contains("per-epoch conservation"),
        "{}",
        out.detections[0].message
    );
}

/// A persistent bit-flip keeps re-firing after rollback; the scrub
/// localizes it and the region gets quarantined, after which the run
/// converges bit-exact (the flip bypassed the apply path, so the rolled
/// back state is clean).
#[test]
fn persistent_bit_flip_is_scrubbed_and_quarantined() {
    let g = graph(13);
    let algo = Sssp::new(VertexId::new(0));
    let golden = run_sequential(&algo, &g);
    let cfg = ChaosConfig {
        verify_every: 2,
        ..ChaosConfig::default()
    };
    let out = run_chaos(
        &algo,
        &g,
        Some(FaultPlan::persistent(FaultKind::BitFlip, 21)),
        &cfg,
    );
    assert!(!out.detections.is_empty());
    assert_eq!(out.detections[0].detector, Detector::MemoryScrub);
    assert!(
        out.detections[0].message.contains("memory scrub failed"),
        "{}",
        out.detections[0].message
    );
    assert_eq!(
        out.quarantined.len(),
        1,
        "the poisoned region must be quarantined"
    );
    assert!(!out.degraded);
    assert!(out.unrecovered.is_none());
    assert_eq!(out.values, golden.values);
}

/// The quarantine granule is eight vertices: a persistent upset at slot
/// `i` quarantines region `i / 8` and no other.
#[test]
fn a_persistent_flip_quarantines_its_eight_vertex_region() {
    let g = graph(13);
    let seed = 21;
    let upset = BitUpset::from_seed(seed, g.num_vertices());
    // Past the first region, so a wider granule would name another one.
    assert!(upset.index >= 8, "slot {}", upset.index);
    let cfg = ChaosConfig {
        verify_every: 2,
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::persistent(FaultKind::BitFlip, seed);
    let out = run_chaos(&Sssp::new(VertexId::new(0)), &g, Some(plan), &cfg);
    assert_eq!(out.quarantined, vec![upset.index / 8]);
}

/// A transient bit-flip is caught by the scrub and cured by a single
/// rollback — no quarantine needed.
#[test]
fn transient_bit_flip_rolls_back_without_quarantine() {
    let g = graph(17);
    let algo = PageRankDelta::new(0.85, 1e-9);
    let golden = run_sequential(&algo, &g);
    let out = run_chaos(
        &algo,
        &g,
        Some(FaultPlan::transient(FaultKind::BitFlip, 33)),
        &ChaosConfig::default(),
    );
    assert!(!out.detections.is_empty());
    assert_eq!(out.detections[0].detector, Detector::MemoryScrub);
    assert!(out.quarantined.is_empty());
    assert_eq!(out.rollbacks, 1);
    assert_eq!(out.values, golden.values);
}

/// A persistent drop exhausts the rollback budget and degrades to the
/// golden engine — still bit-exact, because degradation resumes from the
/// last good checkpoint.
#[test]
fn persistent_drop_degrades_to_golden_engine() {
    let g = graph(19);
    let algo = Sssp::new(VertexId::new(0));
    let golden = run_sequential(&algo, &g);
    let cfg = ChaosConfig {
        max_retries: 2,
        ..ChaosConfig::default()
    };
    let out = run_chaos(
        &algo,
        &g,
        Some(FaultPlan::persistent(FaultKind::DropEvent, 19)),
        &cfg,
    );
    assert!(out.detections.len() > cfg.max_retries as usize);
    assert_eq!(out.rollbacks, cfg.max_retries);
    assert!(out.degraded, "retries exhausted, must degrade");
    assert!(out.unrecovered.is_none());
    assert_eq!(out.values, golden.values);
    assert!(out.wasted_events > 0);
}

/// Every recovery path hands back an accepted-path ledger that conserves
/// events: a rollback restores the checkpoint's counts, a quarantine
/// rolls back the same way, and a degradation adds golden's run from the
/// checkpoint queue without counting that queue twice.
#[test]
fn recovered_runs_conserve_events() {
    let sssp = Sssp::new(VertexId::new(0));
    let retry2 = ChaosConfig {
        max_retries: 2,
        ..ChaosConfig::default()
    };
    let scrub2 = ChaosConfig {
        verify_every: 2,
        ..ChaosConfig::default()
    };
    let cases = [
        (
            graph(11),
            FaultPlan::transient(FaultKind::DropEvent, 3),
            ChaosConfig::default(),
        ),
        (
            graph(13),
            FaultPlan::persistent(FaultKind::BitFlip, 21),
            scrub2,
        ),
        (
            graph(19),
            FaultPlan::persistent(FaultKind::DropEvent, 19),
            retry2,
        ),
        (
            erdos_renyi(96, 420, WeightMode::Uniform(0.5, 4.0), 3),
            FaultPlan::persistent(FaultKind::DropEvent, 3),
            retry2,
        ),
    ];
    let mut paths = (0, 0, 0);
    for (g, plan, cfg) in cases {
        let out = run_chaos(&sssp, &g, Some(plan), &cfg);
        assert!(out.rollbacks > 0 && out.unrecovered.is_none(), "{plan:?}");
        assert_eq!(out.values, run_sequential(&sssp, &g).values, "{plan:?}");
        out.events
            .check()
            .unwrap_or_else(|e| panic!("{plan:?}: {e}"));
        paths.0 += u32::from(!out.degraded);
        paths.1 += u32::from(!out.quarantined.is_empty());
        paths.2 += u32::from(out.degraded);
    }
    assert_eq!(paths, (2, 1, 2), "rollback, quarantine, degradation");
}

/// With degradation disabled, an unrecoverable fault is reported — never
/// silently returned as a converged result.
#[test]
fn unrecoverable_fault_is_reported_when_degradation_is_off() {
    let g = graph(19);
    let algo = Sssp::new(VertexId::new(0));
    let cfg = ChaosConfig {
        max_retries: 1,
        degrade: false,
        ..ChaosConfig::default()
    };
    let out = run_chaos(
        &algo,
        &g,
        Some(FaultPlan::persistent(FaultKind::DropEvent, 19)),
        &cfg,
    );
    assert!(!out.degraded);
    let msg = out.unrecovered.expect("fault must be reported unrecovered");
    assert!(msg.contains("conservation"), "{msg}");
}

/// The chaos executor and its recovery paths are fully deterministic.
#[test]
fn chaos_runs_are_deterministic() {
    let g = graph(23);
    let algo = PageRankDelta::new(0.85, 1e-9);
    for plan in [
        None,
        Some(FaultPlan::transient(FaultKind::DropEvent, 4)),
        Some(FaultPlan::persistent(FaultKind::BitFlip, 8)),
    ] {
        let a = run_chaos(&algo, &g, plan, &ChaosConfig::default());
        let b = run_chaos(&algo, &g, plan, &ChaosConfig::default());
        assert_eq!(a, b);
    }
}

/// Detection latency reflects the verification cadence: a sparse scrub
/// schedule catches a flip later than an every-epoch one.
#[test]
fn scrub_cadence_bounds_detection_latency() {
    let g = graph(29);
    let algo = ConnectedComponents::new();
    let plan = Some(FaultPlan::transient(FaultKind::BitFlip, 41));
    let tight = run_chaos(&algo, &g, plan, &ChaosConfig::default());
    let sparse_cfg = ChaosConfig {
        verify_every: 4,
        ..ChaosConfig::default()
    };
    let sparse = run_chaos(&algo, &g, plan, &sparse_cfg);
    let lat = |o: &ChaosOutcome| o.detections.first().map(|d| d.latency_epochs).unwrap();
    assert!(lat(&tight) < 1 + lat(&sparse) || lat(&sparse) >= lat(&tight));
    assert!(
        lat(&tight) == 0,
        "every-epoch scrub catches the flip at once"
    );
    let golden = run_sequential(&algo, &g);
    assert_eq!(tight.values, golden.values);
    assert_eq!(sparse.values, golden.values);
}

/// The full campaign passes — every scenario detected its fault and
/// recovered to the fault-free reference, every fault-free run is
/// bit-exact, on every backend — and is equal across runs.
#[test]
fn campaign_passes_and_is_deterministic() {
    let report = run_campaign(42);
    for r in &report.records {
        let at = format!("{}/{}/{}", r.fault, r.algo, r.mode);
        assert!(r.detected > 0, "{at}: fault was never detected");
        assert!(
            r.result_ok,
            "{at}: recovered result diverged (max diff {:e})",
            r.max_diff
        );
    }
    for o in &report.overhead {
        assert!(o.bitexact, "fault-free chaos run diverged on {}", o.algo);
    }
    // Full kind coverage.
    for kind in FaultKind::ALL {
        assert!(
            report.records.iter().any(|r| r.fault == kind),
            "no scenario for {kind}"
        );
    }
    // All six algorithms covered, with a fault-free overhead baseline.
    assert_eq!(report.overhead.len(), 6);
    // At least one degradation and one quarantine scenario in the mix.
    assert!(report.records.iter().any(|r| r.recovery == "degrade"));
    assert!(report.records.iter().any(|r| r.recovery == "quarantine"));
    // Determinism: a rerun is the same report, field for field.
    assert_eq!(report, run_campaign(42));
}

/// Tolerance discipline: monotone algorithms recover bit-exactly; the
/// campaign records the max divergence so a silent-corruption regression
/// would show up as `result_ok = false`.
#[test]
fn campaign_monotone_records_are_bit_exact() {
    let report = run_campaign(7);
    for r in report
        .records
        .iter()
        .filter(|r| matches!(r.algo, "sssp" | "bfs" | "cc" | "sswp"))
    {
        assert!(
            r.max_diff == 0.0,
            "{}/{}/{} recovered with nonzero divergence {:e}",
            r.fault,
            r.algo,
            r.mode,
            r.max_diff
        );
    }
    let _ = max_abs_diff(&[0.0], &[0.0]);
}
