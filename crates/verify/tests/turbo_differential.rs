//! Turbo-vs-golden differential tests outside the fuzz driver.
//!
//! The fuzzer exercises the turbo leg on random seeds; these tests pin it
//! on the fixed-seed corpus from [`gp_verify::generate`] (R-MAT,
//! Barabási–Albert, and Erdős–Rényi families across all six algorithms),
//! plus a standalone determinism check: two runs must be the same run,
//! value bits and every field of the outcome.

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{
    max_abs_diff, same_bits, same_run, with_algorithm, AdsorptionParams, App, AppInputs,
    DeltaAlgorithm,
};
use gp_graph::CsrGraph;
use gp_turbo::{run_turbo, TurboConfig};
use gp_verify::oracle::ORACLE_THRESHOLD;
use gp_verify::{generate, TestCase};

/// What the application table needs to build `case`'s algorithm.
fn inputs<'a>(case: &TestCase, params: &'a AdsorptionParams) -> AppInputs<'a> {
    AppInputs {
        root: case.clamped_root(),
        threshold: ORACLE_THRESHOLD,
        adsorption: Some(params),
    }
}

/// Runs turbo and golden on the same graph; exact (bit-level) agreement
/// for monotone algorithms, tolerance-bounded for accumulative ones.
fn assert_turbo_matches<A: DeltaAlgorithm>(seed: u64, algo: &A, g: &CsrGraph, exact: bool) {
    let golden = run_sequential(algo, g);
    let turbo = run_turbo(algo, g, &TurboConfig::default());
    assert_eq!(
        turbo.values.len(),
        golden.values.len(),
        "seed {seed} ({}): length mismatch",
        algo.name()
    );
    if exact {
        let tb: Vec<u64> = turbo.values.iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u64> = golden.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(tb, gb, "seed {seed} ({}): not bit-exact", algo.name());
    } else {
        let tol = algo.comparison_tolerance();
        let diff = max_abs_diff(&turbo.values, &golden.values);
        assert!(
            diff <= tol,
            "seed {seed} ({}): max |diff| {diff:e} > tolerance {tol:e}",
            algo.name()
        );
    }
    // Nothing may be lost: every generated event is coalesced or applied.
    assert_eq!(
        turbo.events_generated,
        turbo.events_coalesced + turbo.events_processed,
        "seed {seed} ({}): event accounting leaked",
        algo.name()
    );
}

fn check_seed(seed: u64) -> App {
    let case = generate(seed);
    let g = case.build_graph();
    let params = AdsorptionParams::random(g.num_vertices(), case.aux_seed);
    let exact = !matches!(case.algo, App::PageRank | App::Adsorption);
    with_algorithm!(case.algo, &inputs(&case, &params), |algo| {
        assert_turbo_matches(seed, algo, &g, exact)
    });
    case.algo
}

#[test]
fn turbo_matches_golden_on_the_fixed_seed_corpus() {
    // 48 seeds are enough for every algorithm and graph family to appear
    // (gp_verify::case tests pin this for 64; track coverage here too).
    let mut seen = [false; 6];
    for seed in 0..48u64 {
        let kind = check_seed(seed);
        let idx = App::ALL.iter().position(|&k| k == kind).unwrap();
        seen[idx] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "corpus did not cover all six algorithms: {seen:?}"
    );
}

#[test]
fn turbo_is_byte_deterministic_on_the_corpus() {
    let cfg = TurboConfig::default();
    for seed in [7u64, 8, 9, 10, 11, 12] {
        let case = generate(seed);
        let g = case.build_graph();
        let params = AdsorptionParams::random(g.num_vertices(), case.aux_seed);
        let (a, b) = with_algorithm!(case.algo, &inputs(&case, &params), |algo| (
            run_turbo(algo, &g, &cfg),
            run_turbo(algo, &g, &cfg)
        ));
        let what = format!("seed {seed} ({}): two runs", case.algo.name());
        assert!(
            same_bits(&a.values, &b.values),
            "{what} differ in value bits"
        );
        same_run(&what, &a, &b).unwrap_or_else(|e| panic!("{e}"));
    }
}
