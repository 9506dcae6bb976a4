//! `gp-chaos`: the deterministic fault-injection plane.
//!
//! Real accelerators lose events to dropped flits, absorb duplicates from
//! retried NoC packets, see single-bit upsets in vertex-property SRAM, and
//! stall shards behind congested memory channels. This crate injects those
//! faults *deterministically* (every trigger is seed-derived), detects
//! them with cheap in-engine watchdogs, and recovers through epoch
//! checkpoints — the reliability story the performance-side crates assume.
//!
//! The pieces, bottom-up:
//!
//! * [`FaultKind`] / [`FaultPlan`] ([`plan`]) — the seven-kind fault
//!   taxonomy spanning the event layer, the memory layer, and the
//!   backend-specific machinery, with transient-vs-persistent semantics
//!   via [`FaultPlan::repeats`];
//! * [`run_chaos`] ([`engine`]) — a golden-semantics executor chopped
//!   into epochs, with per-epoch event-conservation checks, periodic
//!   [`gp_mem::integrity::ShadowChecksum`] scrubs, a convergence budget,
//!   checkpoint/rollback/quarantine recovery, and golden-engine
//!   degradation;
//! * [`run_turbo_guarded`] / [`run_parallel_guarded`] ([`guard`]) —
//!   retry-then-degrade wrappers around the fast backends' own watchdogs
//!   ([`gp_turbo::TurboOutcome::check_lost_events`] and the parallel
//!   engine's epoch-budget abort);
//! * [`run_campaign`] ([`campaign`]) — the full sweep: every fault kind ×
//!   all six algorithms, recording detect → recover → match-the-fault-free
//!   reference with detection latency and recovery overhead; the `chaos`
//!   bench binary holds the record to the `BENCH_chaos.json` schema.
//!
//! The invariant the whole plane defends: **never silently wrong**. Every
//! injected fault is either healed by the engine's own semantics (and
//! provably lost nothing), detected and rolled back, or detected and
//! degraded to the golden engine — the one outcome that cannot happen is
//! a corrupted result presented as converged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod engine;
pub mod guard;
pub mod plan;

pub use campaign::{run_campaign, CampaignRecord, CampaignReport, OverheadRecord};
pub use engine::{run_chaos, ChaosConfig, ChaosOutcome, Detection, Detector};
pub use guard::{run_parallel_guarded, run_turbo_guarded, GuardedOutcome};
pub use plan::{stall_past, FaultKind, FaultPlan};
