//! # gp-graph — graph substrate for the GraphPulse reproduction
//!
//! Provides everything the accelerator and the baselines need to get a graph
//! into memory:
//!
//! * [`VertexId`] — strongly-typed vertex handles,
//! * [`CsrGraph`] — Compressed Sparse Row storage with both out- and
//!   in-adjacency (the paper stores graphs in CSR, §IV-E),
//! * [`GraphBuilder`] — edge-list ingestion with sorting / deduplication /
//!   symmetrization,
//! * [`generators`] — seeded synthetic graph generators (R-MAT,
//!   Barabási–Albert, Erdős–Rényi, Watts–Strogatz, 2-D grids),
//! * [`workloads`] — the Table IV dataset profiles (WG/FB/WK/LJ/TW)
//!   synthesized at a configurable scale,
//! * [`partition`] — contiguous slicing for graphs larger than the
//!   accelerator's on-chip event queue (§IV-F),
//! * [`GraphView`] — the read-only adjacency abstraction all execution
//!   backends iterate through,
//! * [`OverlayGraph`] — a mutable delta-overlay over the CSR for streaming
//!   edge updates, with threshold-triggered compaction,
//! * [`io`] — the text edge-list format,
//! * [`container`] — the on-disk, mmap-able CSR container and
//!   [`MappedCsr`], the out-of-core [`GraphView`] for graphs beyond
//!   resident memory.
//!
//! # Examples
//!
//! ```
//! use gp_graph::{GraphBuilder, VertexId};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
//! b.add_edge(VertexId::new(1), VertexId::new(2), 2.0);
//! b.add_edge(VertexId::new(2), VertexId::new(3), 1.5);
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_degree(VertexId::new(1)), 1);
//! ```

// `deny` rather than `forbid`: the container's mmap shim is the one
// audited exception (`container::mmap` opts back in with a scoped allow);
// everything else in the crate remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod container;
mod csr;
pub mod generators;
pub mod io;
mod overlay;
pub mod partition;
pub mod stats;
mod vertex;
mod view;
pub mod workloads;

pub use builder::GraphBuilder;
pub use container::{MappedCsr, MeteredView};
pub use csr::{CsrGraph, EdgeRef, OutEdges};
pub use gp_sim::rng;
pub use overlay::{AppliedBatch, EdgeUpdate, GraphSnapshot, OverlayGraph};
pub use vertex::VertexId;
pub use view::{GraphView, VertexIds};
