//! Pins the seed-7 fuzz log: a prefix of the campaign CI runs
//! (`fuzz --seed 7`), folded to one FNV-1a hash plus its line count.
//!
//! The log names every generated case and ends with the verdict, so a
//! change to case generation, to any oracle leg's pass/fail outcome, or to
//! the log format moves a literal. The incremental leg applies each case's
//! update batches through an overlay that compacts at a 0.25 pool
//! fraction, so the fold also covers `OverlayGraph::compact`.

use gp_verify::{run_fuzz, FuzzConfig};

/// FNV-1a over the log's bytes.
fn fold(log: &str) -> u64 {
    log.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn seed_7_prefix_log_is_pinned() {
    let cfg = FuzzConfig {
        seed: 7,
        iters: 24,
        ..FuzzConfig::default()
    };
    let mut log = Vec::new();
    let report = run_fuzz(&cfg, &mut log).expect("in-memory log");
    let log = String::from_utf8(log).expect("UTF-8 log");
    assert!(report.passed(), "{log}");
    assert_eq!(
        (log.lines().count(), fold(&log)),
        (26, 11408811608275440589),
        "seed-7 fuzz log moved:\n{log}"
    );
}
