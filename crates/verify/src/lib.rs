//! # gp-verify — differential fuzzing and invariant checking
//!
//! The workspace has five independent ways to compute the same
//! delta-accumulative fixed point: the sequential golden engine
//! (`gp_algorithms::engine::run_sequential`), the cycle-level accelerator
//! ([`graphpulse_core::GraphPulse::run`]), the shard-parallel engine
//! ([`graphpulse_core::GraphPulse::run_parallel`]), the incremental
//! engine over the CSR overlay ([`gp_stream::IncrementalEngine`]), and the
//! speed-first turbo engine ([`gp_turbo::run_turbo`]). This crate
//! cross-checks all of them on randomized inputs, deterministically:
//!
//! * [`case`] — random test cases (R-MAT / degree-skewed / uniform graphs,
//!   randomized machine geometries, insert/delete update streams, one
//!   application drawn from `gp_algorithms::App::ALL`), fully determined by
//!   a single `u64` seed;
//! * [`oracle`] — the differential oracle (every leg generic over the
//!   algorithm `gp_algorithms::with_algorithm!` hands it: the crate has no
//!   per-application code but the relabel rule) plus metamorphic checks
//!   (vertex-relabeling invariance, edge-order-permutation invariance,
//!   slice-count invariance) and the micro-architectural invariants
//!   (event conservation, DRAM protocol legality, cache accounting);
//! * [`invariants`] — standalone micro-fuzzers for the memory models;
//! * [`mod@shrink`] — a greedy shrinker that reduces a failing case to a
//!   minimal repro and renders it as a ready-to-paste regression test;
//! * [`fuzz`] — the driver loop behind the `fuzz` binary in `gp-bench`
//!   (`cargo run -p gp-bench --bin fuzz -- --seed 7 --iters 50`).
//!
//! Everything is seeded through `gp_sim::rng` — two runs with the same seed
//! produce byte-identical logs on every platform.
//!
//! # Examples
//!
//! ```
//! use gp_verify::{generate, run_case};
//!
//! let case = generate(7);
//! run_case(&case, None).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod fuzz;
pub mod invariants;
pub mod oracle;
pub mod shrink;

pub use case::{generate, MachineParams, TestCase};
pub use fuzz::{run_fuzz, FuzzConfig, FuzzReport};
pub use oracle::{run_case, Failure, Fault};
pub use shrink::{regression_test, shrink};
