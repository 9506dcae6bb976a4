//! # gp-turbo — the speed-first functional backend
//!
//! A fifth execution backend for [`DeltaAlgorithm`](gp_algorithms::DeltaAlgorithm)s
//! that keeps GraphPulse's semantics — in-place event coalescing into a
//! dense per-vertex slot array, asynchronous delta accumulation — but drops
//! cycle accounting entirely. Where the cycle-level model in
//! `graphpulse-core` pays for micro-architectural fidelity on every event
//! (queues, pipelines, DRAM timing), this backend asks the complementary
//! question: *how fast does the paper's execution model run as software?*
//!
//! Two mechanisms carry the throughput:
//!
//! * **Dense event pool** — pending deltas live in one flat `Vec` indexed
//!   by vertex id, with an `active` bitmap beside it (one bit per vertex);
//!   coalescing is a single indexed read-modify-write, exactly like the
//!   accelerator's in-place coalescing queue but without the bin/row/slot
//!   geometry.
//! * **Vertex-order sweeps** — the paper's queue is direct-mapped and
//!   drained bin by bin in vertex order (§IV), not by priority. Here a
//!   round takes each bitmap word and walks its set bits in ascending
//!   order, so the kernel reads monotone CSR ranges (row pointers, edge
//!   lists and the value/pending arrays stream forward) with no queue, no
//!   sort and no search structure on the path. A propagated delta is
//!   deposited at once, so a target the sweep has not reached yet is
//!   processed in the same round — the lookahead of Fig. 8. The §II-B
//!   reordering property guarantees any drain order reaches the same
//!   fixed point.
//!
//! The pool is a [`gp_algorithms::DeltaPool`], and [`run_turbo_with`] runs
//! on one the caller keeps resident across runs: a finished run leaves no
//! bit set, so the next run reuses the pool untouched and costs what it
//! processes. [`run_turbo`] and [`run_turbo_seeded`] are one run on a fresh
//! pool.
//!
//! The pool is one, and the run single-threaded: vertex sharding cost
//! 1.17–1.51× the events, never read ahead of one pool in two timing
//! sweeps running, and was deleted (EXPERIMENTS.md, "Sharded turbo"). The backend is
//! bit-deterministic: two runs on the same graph produce identical values,
//! counters, and round logs. It is registered as the **fifth oracle leg**
//! in `gp-verify`, so every fuzz case cross-checks it against the golden
//! engine, the cycle-level accelerator, the shard-parallel engine, and the
//! incremental engine — speed never forks semantics.
//!
//! # Examples
//!
//! ```
//! use gp_algorithms::PageRankDelta;
//! use gp_graph::generators::{rmat, RmatConfig};
//! use gp_turbo::{run_turbo, TurboConfig};
//!
//! let g = rmat(&RmatConfig::graph500(1_024, 8_192), 42);
//! let out = run_turbo(&PageRankDelta::new(0.85, 1e-7), &g, &TurboConfig::default());
//! assert_eq!(out.values.len(), 1_024);
//! assert!(out.events_coalesced > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub use engine::{
    run_turbo, run_turbo_seeded, run_turbo_with, StaleFault, TurboConfig, TurboOutcome, TurboRun,
};
