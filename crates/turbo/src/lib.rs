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
//! Three mechanisms carry the throughput:
//!
//! * **SoA event pool** — pending deltas live in flat `Vec`s indexed by
//!   vertex id (delta, active flag, scheduled key), not per-event structs;
//!   coalescing is a single indexed read-modify-write, exactly like the
//!   accelerator's in-place coalescing queue but without the bin/row/slot
//!   geometry.
//! * **Delta-magnitude-prioritized draining** — active vertices are
//!   filed in a plain array of [`KEY_SPACE`](priority::KEY_SPACE) buckets
//!   indexed by the quantized [`urgency`](gp_algorithms::DeltaAlgorithm::urgency)
//!   of their pending delta ([`priority::key_of`]) and the buckets drain in
//!   ascending key order, so big deltas drain first (§V of the paper:
//!   large deltas compound more work per event and converge faster). Like
//!   the paper's direct-mapped event queue (§IV) there is no search
//!   structure on the path: a key names its bucket, and an occupancy
//!   bitmap names the next bucket to sweep. The §II-B reordering property
//!   guarantees any drain order reaches the same fixed point, which is
//!   what licenses the approximation.
//! * **Cache-blocked kernels** — each drained priority bucket is sorted by
//!   vertex id before processing, so the kernel walks monotone CSR ranges
//!   (row pointers, edge lists, and the value/pending arrays stream
//!   forward) instead of hopping with the priority order. The sort is also
//!   what makes a vertex-sharded run reproduce the single-shard one bit
//!   for bit, so it is not optional.
//!
//! The backend is bit-deterministic: two runs on the same graph produce
//! identical values, counters, and (optional) round logs. It is registered
//! as the **fifth oracle leg** in `gp-verify`, so every fuzz case
//! cross-checks it against the golden engine, the cycle-level accelerator,
//! the shard-parallel engine, and the incremental engine — speed never
//! forks semantics.
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
pub mod priority;

pub use engine::{run_turbo, run_turbo_seeded, RoundStat, StaleFault, TurboConfig, TurboOutcome};
