//! # graphpulse-core — the GraphPulse accelerator
//!
//! A cycle-level model of the event-driven asynchronous graph-processing
//! accelerator of *GraphPulse: An Event-Driven Hardware Accelerator for
//! Asynchronous Graph Processing* (MICRO 2020).
//!
//! The machine executes any [`DeltaAlgorithm`](gp_algorithms::DeltaAlgorithm)
//! and comprises, per the paper's Figs. 3 and 9:
//!
//! * an **in-place coalescing event queue** — direct-mapped bins with a
//!   pipelined coalescer (§IV-D),
//! * an **event scheduler** draining bins round-robin in *rounds*, with the
//!   quiescence barrier that guarantees at most one in-flight event per
//!   vertex (implicit atomicity, §IV-C),
//! * **event processors** with input buffers and a vertex-property
//!   scratchpad prefetcher (§V),
//! * decoupled **generation units** with multiple streams per processor,
//!   an edge cache, and a degree-hinted N-block edge prefetcher (§V),
//! * a **crossbar** routing produced events back to queue bins,
//! * the **DDR3 memory system** of `gp-mem` (4 × 17 GB/s, Table III),
//! * **slicing** for graphs whose vertex count exceeds the queue capacity,
//!   with off-chip event spill/fill (§IV-F),
//! * an **energy/area model** calibrated against Table V.
//!
//! # Quickstart
//!
//! ```
//! use gp_algorithms::PageRankDelta;
//! use gp_graph::generators::{erdos_renyi, WeightMode};
//! use graphpulse_core::{AcceleratorConfig, GraphPulse};
//!
//! let graph = erdos_renyi(256, 1024, WeightMode::Unweighted, 1);
//! let algo = PageRankDelta::new(0.85, 1e-7);
//! let accel = GraphPulse::new(AcceleratorConfig::small_test());
//! let outcome = accel.run(&graph, &algo).unwrap();
//! assert_eq!(outcome.values.len(), 256);
//! println!("finished in {} cycles", outcome.report.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod energy;
mod event;
mod generation;
mod machine;
mod metrics;
mod network;
pub mod parallel;
mod processor;
mod queue;
mod wake;

pub use config::{AcceleratorConfig, ParallelConfig, QueueConfig, SchedulingPolicy};
pub use energy::{ActivityCounters, EnergyModel, EnergyReport};
pub use event::{Event, EventMeta};
pub use machine::{GraphPulse, Outcome, RunError};
pub use metrics::{ExecutionReport, LookaheadBuckets, RoundMetrics, StageAverages};
pub use parallel::{ParallelChaos, ParallelOutcome};
