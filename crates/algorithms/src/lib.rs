//! # gp-algorithms — delta-accumulative graph algorithms
//!
//! GraphPulse targets algorithms expressible in the delta-accumulative form
//! of §II-B: a vertex state `v`, an incremental update operator `⊕`
//! (*reduce*), and an edge-wise *propagate* function `g⟨i,j⟩` that converts a
//! vertex's change into contributions for its out-neighbors:
//!
//! ```text
//! v_j^k     = v_j^{k-1} ⊕ Δv_j^k
//! Δv_j^{k+1} = ⊕_i g⟨i,j⟩(Δv_i^k)
//! ```
//!
//! This crate defines the [`DeltaAlgorithm`] trait capturing that form, the
//! five applications of the paper's Table II ([`PageRankDelta`],
//! [`Adsorption`], [`Sssp`], [`Bfs`], [`ConnectedComponents`]) plus [`Sswp`],
//! the table that names them ([`App`]: spellings, input needs, and
//! [`with_algorithm!`] — the one place a name becomes a concrete algorithm;
//! every front end in the workspace dispatches through it), the dense
//! coalescing column the turbo backend and incremental seeding share
//! ([`DeltaPool`]), Algorithm 1's event step, written once for every engine
//! ([`engine::apply_event`] and [`engine::for_each_propagated`]), two
//! software *golden* engines ([`engine::run_sequential`] — Algorithm 1 with
//! a FIFO worklist, and [`engine::run_bsp`] — synchronous rounds), and classic
//! [`mod@reference`] implementations (power iteration, Dijkstra, level BFS,
//! label propagation, Jacobi) used to validate every execution backend in
//! the workspace.
//!
//! # Examples
//!
//! ```
//! use gp_algorithms::{engine, PageRankDelta};
//! use gp_graph::generators::{erdos_renyi, WeightMode};
//!
//! let g = erdos_renyi(100, 400, WeightMode::Unweighted, 1);
//! let pr = PageRankDelta::new(0.85, 1e-7);
//! let result = engine::run_sequential(&pr, &g);
//! let golden = gp_algorithms::reference::pagerank(&g, 0.85, 1e-9);
//! for (a, b) in result.values.iter().zip(&golden) {
//!     assert!((a - b).abs() < 1e-3);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adsorption;
mod bfs;
mod cc;
mod delta;
pub mod engine;
pub mod incremental;
mod pagerank;
pub mod pool;
pub mod reference;
mod solver;
mod sssp;
mod sswp;
mod table;

pub use adsorption::{normalize_inbound, Adsorption, AdsorptionParams};
pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use delta::DeltaAlgorithm;
pub use incremental::{
    incremental_seeds, incremental_seeds_with, IncrementalAlgorithm, Invalidation, SeedPlan,
    SeedingStrategy,
};
pub use pagerank::PageRankDelta;
pub use pool::DeltaPool;
pub use solver::{scale_for_convergence, LinearSolver};
pub use sssp::Sssp;
pub use sswp::Sswp;
pub use table::{App, AppInputs};

/// Maximum absolute difference between two value vectors; `f64::INFINITY`
/// entries compare equal to each other, and a NaN difference counts as
/// `f64::INFINITY`, so no tolerance accepts a NaN.
///
/// A measurement; [`accept`] is the verdict.
///
/// ```
/// let a = [1.0, f64::INFINITY];
/// let b = [1.0 + 1e-9, f64::INFINITY];
/// assert!(gp_algorithms::max_abs_diff(&a, &b) < 1e-6);
/// assert_eq!(gp_algorithms::max_abs_diff(&[f64::NAN, 2.0], &[1.0, 2.0]), f64::INFINITY);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "value vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| abs_diff(x, y))
        .fold(0.0, f64::max)
}

/// One vertex's term of [`max_abs_diff`].
fn abs_diff(x: f64, y: f64) -> f64 {
    if x.is_infinite() && y.is_infinite() && x.signum() == y.signum() {
        0.0
    } else {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            d
        }
    }
}

/// The acceptance rule: whether a backend's values `got` are a right answer
/// for `algo` against the reference run's `golden`. They must be as many,
/// and within the algorithm's
/// [`comparison_tolerance`](DeltaAlgorithm::comparison_tolerance) by
/// [`max_abs_diff`] — exact for the monotone algorithms, a threshold-derived
/// epsilon for the accumulative ones (§II-B's reordering holds only up to
/// rounding). Every backend-vs-reference verdict in the workspace is this
/// function. On acceptance it returns the max |diff|.
///
/// # Errors
///
/// `length A vs golden B`, or `max |diff| D > tolerance T (first at vertex
/// v: got x, golden y)` naming the first vertex beyond the tolerance.
///
/// # Examples
///
/// ```
/// use gp_algorithms::{accept, Bfs};
/// use gp_graph::VertexId;
///
/// let bfs = Bfs::new(VertexId::new(0));
/// assert_eq!(accept(&bfs, &[0.0, 1.0], &[0.0, 1.0]), Ok(0.0));
/// let err = accept(&bfs, &[0.0, 2.0], &[0.0, 1.0]).unwrap_err();
/// assert_eq!(err, "max |diff| 1e0 > tolerance 0e0 (first at vertex 1: got 2, golden 1)");
/// ```
pub fn accept<A: DeltaAlgorithm>(algo: &A, got: &[f64], golden: &[f64]) -> Result<f64, String> {
    if got.len() != golden.len() {
        return Err(format!("length {} vs golden {}", got.len(), golden.len()));
    }
    let tol = algo.comparison_tolerance();
    let diff = max_abs_diff(got, golden);
    match (0..got.len()).find(|&v| abs_diff(got[v], golden[v]) > tol) {
        None => Ok(diff),
        Some(v) => Err(format!(
            "max |diff| {diff:e} > tolerance {tol:e} (first at vertex {v}: got {}, golden {})",
            got[v], golden[v]
        )),
    }
}

/// Whether two value vectors are the same length and bit-identical, element
/// for element — the comparison for runs that must reproduce each other
/// exactly (`==` on `f64` would let `0.0` pass for `-0.0` and fail a NaN
/// against itself).
///
/// # Examples
///
/// ```
/// assert!(gp_algorithms::same_bits(&[1.0, f64::NAN], &[1.0, f64::NAN]));
/// assert!(!gp_algorithms::same_bits(&[0.0], &[-0.0]));
/// ```
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|v| v.to_bits())
        .eq(b.iter().map(|v| v.to_bits()))
}

/// Whether two records are the same run: their `{:#?}` renderings are
/// equal. `Debug` prints every field in declaration order and every `f64`
/// as its shortest round-trip decimal, so a field added to the record is
/// compared without touching a caller, and `0.0` differs from `-0.0`. The
/// one thing the rendering cannot tell apart is two NaN payloads: compare
/// value vectors with [`same_bits`] too.
///
/// # Errors
///
/// Names `what` and the first line of the renderings that differs.
///
/// # Examples
///
/// ```
/// use gp_algorithms::same_run;
/// assert!(same_run("runs", &(1u64, [0.5]), &(1u64, [0.5])).is_ok());
/// let err = same_run("runs", &(1u64, [0.0]), &(1u64, [-0.0])).unwrap_err();
/// assert!(err.contains("-0.0"), "{err}");
/// ```
pub fn same_run<T: std::fmt::Debug>(what: &str, a: &T, b: &T) -> Result<(), String> {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    match (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what} diverged at line {} of the record: {} vs {}",
            i + 1,
            a.get(i).map_or("<end>", |l| l.trim()),
            b.get(i).map_or("<end>", |l| l.trim())
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::VertexId;

    /// The rule on every row of the table: its boundary, infinities, NaN, a
    /// length mismatch, and the vertex the refusal names.
    #[test]
    fn accept_holds_every_row_to_its_tolerance() {
        let params = AdsorptionParams::random(4, 1);
        for threshold in [1e-7, 0.1] {
            let inputs = AppInputs {
                root: VertexId::new(0),
                threshold,
                adsorption: Some(&params),
            };
            for app in App::ALL {
                let tol = match app {
                    App::PageRank | App::Adsorption => threshold * 1e4,
                    _ => 0.0,
                };
                let (inf, at) = (f64::INFINITY, tol);
                let golden = [0.0, 1.0, inf, -inf];
                with_algorithm!(app, &inputs, |algo| {
                    assert_eq!(accept(algo, &golden, &golden), Ok(0.0), "{app:?}");
                    assert_eq!(accept(algo, &[at, 1.0, inf, -inf], &golden), Ok(tol));
                    let past = accept(algo, &[at.next_up(), 1.0, inf, -inf], &golden);
                    assert!(past.is_err(), "{app:?} at {tol:e}: {past:?}");
                    let flipped = accept(algo, &[0.0, 1.0, -inf, -inf], &golden).unwrap_err();
                    assert!(flipped.contains("first at vertex 2: got -inf"), "{flipped}");
                    let nan = accept(algo, &[0.0, f64::NAN, inf, -inf], &golden).unwrap_err();
                    assert!(nan.contains("first at vertex 1: got NaN"), "{nan}");
                    assert_eq!(
                        accept(algo, &[0.0], &golden),
                        Err("length 1 vs golden 4".to_string())
                    );
                    assert_eq!(
                        accept(algo, &[at, 1e6, inf, 5.0], &golden),
                        Err(format!(
                            "max |diff| inf > tolerance {tol:e} \
                             (first at vertex 1: got 1000000, golden 1)"
                        ))
                    );
                });
            }
        }
    }
}
