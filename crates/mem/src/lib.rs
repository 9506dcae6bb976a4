//! # gp-mem — memory-hierarchy timing models
//!
//! Substrate crate replacing DRAMSim2 in the GraphPulse reproduction.
//! Everything is a deterministic, cycle-stepped model built on `gp-sim`:
//!
//! * [`MemorySystem`] — a DDR3-style main memory: multiple channels, banks
//!   with open-row (row-buffer) state, hit/miss/conflict timing, a shared
//!   per-channel data bus, bounded request queues with backpressure, and
//!   per-traffic-class byte accounting (including *useful* bytes for the
//!   paper's Fig. 12 utilization analysis),
//! * [`Cache`] — a set-associative LRU cache model (the edge cache of §V),
//! * [`Scratchpad`] — a small keyed buffer (the vertex-property scratchpad
//!   that the prefetcher fills, §V),
//! * [`prefetch`] — line-address helpers for block reads (the N-block edge
//!   prefetch is the cycle model's, in `graphpulse-core`).
//!
//! The paper's configuration (Table III) is 4 × DDR3 channels at 17 GB/s;
//! [`DramConfig::paper`] reproduces it for a 1 GHz accelerator clock.
//!
//! # Examples
//!
//! ```
//! use gp_mem::{DramConfig, MemRequest, MemorySystem, TrafficClass};
//! use gp_sim::Cycle;
//!
//! let mut mem = MemorySystem::new(DramConfig::paper());
//! let id = mem
//!     .request(Cycle::ZERO, MemRequest::read(0x40, 64, TrafficClass::EdgeRead))
//!     .unwrap();
//! let mut now = Cycle::ZERO;
//! loop {
//!     mem.tick(now);
//!     if let Some(done) = mem.pop_completion(now) {
//!         assert_eq!(done.id(), id);
//!         break;
//!     }
//!     now = now.next();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod dram;
pub mod integrity;
pub mod prefetch;
pub mod protocol;
mod request;
mod scratchpad;

pub use cache::{Cache, CacheConfig};
pub use config::DramConfig;
pub use dram::{MemStats, MemorySystem};
pub use integrity::{BitUpset, ShadowChecksum, Storable};
pub use protocol::{check_protocol, IssueRecord, RowOutcome};
pub use request::{MemRequest, ReqId, TrafficClass};
pub use scratchpad::Scratchpad;

/// Size of an off-chip transfer granule (DRAM burst / cache line) in bytes.
pub const LINE_BYTES: u64 = 64;

/// Rounds `addr` down to its line base.
#[inline]
pub fn line_base(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}
