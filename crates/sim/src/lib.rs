//! # gp-sim — cycle-level simulation kernel
//!
//! Substrate crate of the GraphPulse reproduction. The original paper built
//! its evaluation on the Structural Simulation Toolkit (SST) with a DRAMSim2
//! memory backend; this crate provides the equivalent *kernel* primitives
//! that the rest of the workspace composes into a cycle-accurate model:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp,
//! * [`Pipeline`] — a fixed-latency, initiation-interval-1 pipeline model
//!   (used e.g. for the 4-stage floating-point coalescer of the paper),
//! * [`EventWheel`] — a timestamp-ordered scheduler for deferred actions
//!   (used by the DRAM model for request completions),
//! * [`stats`] — running averages and per-state cycle timelines that back
//!   the figures of the paper's evaluation section.
//!
//! The kernel is deliberately *synchronous*: components own their state and
//! are ticked once per cycle by their parent, which keeps the model fast,
//! deterministic and free of `Rc<RefCell<..>>` webs.
//!
//! # Examples
//!
//! ```
//! use gp_sim::{Cycle, Pipeline};
//!
//! let mut adder: Pipeline<u32> = Pipeline::new(2); // two stages
//! let t0 = Cycle::ZERO;
//! adder.issue(t0, 7);
//! assert_eq!(adder.retire(t0), None);          // still in flight
//! assert_eq!(adder.retire(t0 + 2), Some(7));   // done after the depth
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycle;
mod pipeline;
pub mod rng;
pub mod stats;
mod wheel;

pub use cycle::Cycle;
pub use pipeline::Pipeline;
pub use wheel::EventWheel;
