//! # gp-sim — cycle-level simulation kernel
//!
//! Substrate crate of the GraphPulse reproduction. The original paper built
//! its evaluation on the Structural Simulation Toolkit (SST) with a DRAMSim2
//! memory backend; this crate provides the equivalent *kernel* primitives
//! that the rest of the workspace composes into a cycle-accurate model:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp,
//! * [`Fifo`] — a bounded queue whose entries become visible only after a
//!   configurable latency (models wires, buffers and channels),
//! * [`Pipeline`] — a fixed-latency, initiation-interval-1 pipeline model
//!   (used e.g. for the 4-stage floating-point coalescer of the paper),
//! * [`EventWheel`] — a timestamp-ordered scheduler for deferred actions
//!   (used by the DRAM model for request completions),
//! * [`stats`] — counters and histograms that back every figure of the
//!   paper's evaluation section.
//!
//! The kernel is deliberately *synchronous*: components own their state and
//! are ticked once per cycle by their parent, which keeps the model fast,
//! deterministic and free of `Rc<RefCell<..>>` webs.
//!
//! # Examples
//!
//! ```
//! use gp_sim::{Cycle, Fifo};
//!
//! let mut wire: Fifo<u32> = Fifo::new(4, 2); // capacity 4, latency 2 cycles
//! let t0 = Cycle::ZERO;
//! wire.push(t0, 7).unwrap();
//! assert_eq!(wire.pop(t0), None);            // not visible yet
//! assert_eq!(wire.pop(t0 + 2), Some(7));     // visible after the latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycle;
mod fifo;
mod pipeline;
pub mod rng;
pub mod stats;
mod wheel;

pub use cycle::Cycle;
pub use fifo::{Fifo, FifoFullError};
pub use pipeline::Pipeline;
pub use wheel::EventWheel;

/// A component that advances one clock cycle at a time.
///
/// Implementors own all of their state; the parent model calls
/// [`Ticker::tick`] exactly once per cycle in a deterministic order.
pub trait Ticker {
    /// Advance the component's internal state to the end of cycle `now`.
    fn tick(&mut self, now: Cycle);
}
