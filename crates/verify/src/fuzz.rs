//! The fuzz driver loop behind `cargo run -p gp-bench --bin fuzz`.
//!
//! Each iteration derives a fresh case seed from the master seed, runs the
//! memory-model micro-fuzzers and the full differential oracle, and logs
//! one line. On the first failure the driver (optionally) shrinks the case
//! and prints a ready-to-paste regression test. All output is written
//! through the caller's writer and depends only on the seed, so two runs
//! with the same seed produce byte-identical logs.

use std::io::Write;

use gp_sim::rng::{Rng, StdRng};

use crate::case::{generate, TestCase};
use crate::invariants::{check_cache_model, check_dram_protocol};
use crate::oracle::{run_case, Failure, Fault};
use crate::shrink::{regression_test, shrink};

/// Driver parameters (mirrors the `fuzz` binary's flags).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every case seed derives from it.
    pub seed: u64,
    /// Number of iterations to run.
    pub iters: u64,
    /// Whether to shrink the first failing case.
    pub shrink: bool,
    /// Deliberate defect to inject (harness self-test).
    pub fault: Option<Fault>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 7,
            iters: 50,
            shrink: true,
            fault: None,
        }
    }
}

/// Outcome of a [`run_fuzz`] campaign.
#[derive(Debug)]
pub struct FuzzReport {
    /// Iterations completed (including the failing one, if any).
    pub iterations_run: u64,
    /// The first failing case, its diagnosis, and — when shrinking was
    /// enabled — the minimized repro.
    pub failure: Option<(TestCase, Failure, Option<TestCase>)>,
}

impl FuzzReport {
    /// Whether the whole campaign passed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs the campaign described by `cfg`, logging to `out`.
///
/// # Errors
///
/// Only I/O errors from `out` are returned; oracle failures are reported
/// in the [`FuzzReport`].
pub fn run_fuzz(cfg: &FuzzConfig, out: &mut impl Write) -> std::io::Result<FuzzReport> {
    let mut master = StdRng::seed_from_u64(cfg.seed);
    writeln!(
        out,
        "fuzz: seed {} · {} iteration(s) · shrink {} · fault {}",
        cfg.seed,
        cfg.iters,
        if cfg.shrink { "on" } else { "off" },
        match cfg.fault {
            Some(f) => format!("{f:?}"),
            None => "none".into(),
        }
    )?;
    for iter in 0..cfg.iters {
        let case_seed = master.next_u64();
        let case = generate(case_seed);
        writeln!(
            out,
            "iter {iter:4}  seed {case_seed:#018x}  algo {:<4}  n {:3}  m {:4}  updates {:2}",
            case.algo.name(),
            case.vertices,
            case.edges.len(),
            case.updates.len()
        )?;
        if let Err(e) = check_dram_protocol(case_seed ^ 0xD7A3) {
            let failure = Failure {
                check: "dram-protocol",
                detail: e,
            };
            return report_failure(cfg, out, iter, case, failure);
        }
        if let Err(e) = check_cache_model(case_seed ^ 0xCAC4E) {
            let failure = Failure {
                check: "cache-model",
                detail: e,
            };
            return report_failure(cfg, out, iter, case, failure);
        }
        if let Err(failure) = run_case(&case, cfg.fault) {
            return report_failure(cfg, out, iter, case, failure);
        }
    }
    writeln!(
        out,
        "fuzz: {} iteration(s) passed — differential, metamorphic, and \
         invariant checks all clean (seed {})",
        cfg.iters, cfg.seed
    )?;
    Ok(FuzzReport {
        iterations_run: cfg.iters,
        failure: None,
    })
}

fn report_failure(
    cfg: &FuzzConfig,
    out: &mut impl Write,
    iter: u64,
    case: TestCase,
    failure: Failure,
) -> std::io::Result<FuzzReport> {
    writeln!(out, "FAIL at iter {iter}: {failure}")?;
    let mut shrunk = None;
    let mut final_failure = failure.clone();
    if cfg.shrink {
        let (small, last) = shrink(&case, cfg.fault, &failure);
        writeln!(
            out,
            "shrunk: {} -> {} vertices, {} -> {} edges, {} -> {} updates",
            case.vertices,
            small.vertices,
            case.edges.len(),
            small.edges.len(),
            case.updates.len(),
            small.updates.len()
        )?;
        writeln!(out, "minimal repro (ready-to-paste regression test):")?;
        writeln!(out, "{}", regression_test(&small, cfg.fault, &last))?;
        final_failure = last;
        shrunk = Some(small);
    }
    Ok(FuzzReport {
        iterations_run: iter + 1,
        failure: Some((case, final_failure, shrunk)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(cfg: &FuzzConfig) -> (FuzzReport, String) {
        let mut buf = Vec::new();
        let report = run_fuzz(cfg, &mut buf).unwrap();
        (report, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn clean_campaign_passes_and_is_deterministic() {
        let cfg = FuzzConfig {
            seed: 3,
            iters: 4,
            shrink: true,
            fault: None,
        };
        let (r1, log1) = run_to_string(&cfg);
        let (r2, log2) = run_to_string(&cfg);
        assert!(r1.passed() && r2.passed());
        assert_eq!(log1, log2, "same seed must produce byte-identical logs");
        assert!(log1.contains("4 iteration(s) passed"));
    }

    #[test]
    fn injected_fault_fails_and_prints_a_repro() {
        let cfg = FuzzConfig {
            seed: 7,
            iters: 5,
            shrink: true,
            fault: Some(Fault::MergeSkew),
        };
        let (report, log) = run_to_string(&cfg);
        assert!(!report.passed());
        let (_, failure, shrunk) = report.failure.as_ref().unwrap();
        assert_eq!(failure.check, "differential-parallel");
        let small = shrunk.as_ref().unwrap();
        assert!(small.vertices <= 32);
        assert!(log.contains("minimal repro (ready-to-paste regression test):"));
        assert!(log.contains("fn fuzz_regression()"));
    }
}
