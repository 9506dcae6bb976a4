//! The fault taxonomy and deterministic fault plans.

use gp_mem::integrity::mix64;
use graphpulse_core::ParallelChaos;

/// Every injectable fault kind, spanning the execution stack.
///
/// The first four are *event-layer* faults injected by the chaos executor
/// ([`run_chaos`](crate::run_chaos)); [`FaultKind::BitFlip`] is a
/// *memory-layer* fault at the vertex-property store; the last three live
/// in specific backends (shard-parallel exchange, turbo scheduling pool,
/// and the legacy merge-order skew checked differentially by `gp-verify`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A generated event vanishes before delivery.
    DropEvent,
    /// A generated event is delivered twice.
    DuplicateEvent,
    /// A generated event is held back and redelivered epochs later
    /// (queue reorder across an epoch window).
    DelayEvent,
    /// A single-bit upset in the vertex-property memory, bypassing the
    /// apply path (see [`gp_mem::integrity`]).
    BitFlip,
    /// One shard's egress stalls for a window of epoch barriers in the
    /// shard-parallel engine.
    ShardStall,
    /// A cleared `active` bit in the turbo event pool
    /// ([`gp_turbo::StaleFault`]); the name dates from turbo's bucketed
    /// scheduler and is kept for the `gp-bench/chaos/v1` label.
    WheelStale,
    /// The legacy injected fault: a merge-order skew that perturbs one
    /// vertex value of the parallel engine's output, caught by the
    /// differential oracle.
    MergeSkew,
}

impl FaultKind {
    /// Every fault kind, in campaign sweep order.
    pub const ALL: [FaultKind; 7] = [
        FaultKind::DropEvent,
        FaultKind::DuplicateEvent,
        FaultKind::DelayEvent,
        FaultKind::BitFlip,
        FaultKind::ShardStall,
        FaultKind::WheelStale,
        FaultKind::MergeSkew,
    ];

    /// The canonical command-line spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DropEvent => "drop-event",
            FaultKind::DuplicateEvent => "duplicate-event",
            FaultKind::DelayEvent => "delay-event",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::ShardStall => "shard-stall",
            FaultKind::WheelStale => "wheel-stale",
            FaultKind::MergeSkew => "merge-order",
        }
    }

    /// Parses a command-line spelling; inverse of [`FaultKind::label`].
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.label() == s)
    }

    /// All canonical spellings, for usage/error text.
    #[must_use]
    pub fn labels() -> Vec<&'static str> {
        FaultKind::ALL.iter().map(|k| k.label()).collect()
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic fault plan: what to inject, where (seed-derived), and
/// how persistently.
///
/// All trigger parameters — which event index to drop/duplicate/delay,
/// which memory word to flip, which epoch to fire in — are derived from
/// `seed` and the run's dimensions, never from host state, so a plan
/// replays bit-identically. `repeats` gives the fault transient-vs-
/// persistent semantics under recovery: the injector fires at most
/// `repeats` times *across rollback retries*, so a transient fault
/// (`repeats` below the retry budget) is cured by rollback-and-retry
/// while a persistent one forces quarantine or degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Derives every trigger parameter.
    pub seed: u64,
    /// Times the fault fires before going quiet (`u32::MAX` ≈ stuck-at).
    pub repeats: u32,
}

impl FaultPlan {
    /// A transient plan: fires once, then never again.
    #[must_use]
    pub fn transient(kind: FaultKind, seed: u64) -> FaultPlan {
        FaultPlan {
            kind,
            seed,
            repeats: 1,
        }
    }

    /// A persistent plan: re-fires on every retry (stuck-at fault).
    #[must_use]
    pub fn persistent(kind: FaultKind, seed: u64) -> FaultPlan {
        FaultPlan {
            kind,
            seed,
            repeats: u32::MAX,
        }
    }

    /// The global deposit index (seeds included) the event-layer faults
    /// trigger on, kept small so the fault lands inside even modest runs.
    /// Always ≥ 1: index 0 is the first cold-start seed, which replays
    /// from the initial checkpoint after a rollback without re-entering
    /// the injection layer — a persistent fault pinned there could never
    /// re-fire, collapsing the transient/persistent distinction.
    #[must_use]
    pub fn trigger_index(&self) -> u64 {
        1 + mix64(self.seed ^ 0xD10F) % 23
    }

    /// Epochs a delayed event is held back (≥ 1).
    #[must_use]
    pub fn delay_epochs(&self) -> u64 {
        1 + mix64(self.seed ^ 0xDE1A) % 3
    }

    /// The epoch index a bit-flip fires in, kept small for the same
    /// reason as [`FaultPlan::trigger_index`].
    #[must_use]
    pub fn flip_epoch(&self) -> u64 {
        mix64(self.seed ^ 0xF11F) % 4
    }
}

/// The shard-stall scenario for a run that converges cleanly in
/// `clean_epochs` barriers: a watchdog budget of 8 barriers beyond that,
/// and shard 0's egress held for 32 barriers beyond the budget, so a stall
/// that is never retried away always trips the watchdog.
#[must_use]
pub fn stall_past(clean_epochs: u64) -> ParallelChaos {
    let budget = clean_epochs + 8;
    ParallelChaos {
        stall: Some((0, budget + 32)),
        epoch_budget: Some(budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(FaultKind::parse("nope"), None);
        assert_eq!(FaultKind::parse(""), None);
        // Legacy spelling survives.
        assert_eq!(FaultKind::parse("merge-order"), Some(FaultKind::MergeSkew));
    }

    #[test]
    fn labels_cover_all_kinds_without_duplicates() {
        let labels = FaultKind::labels();
        assert_eq!(labels.len(), FaultKind::ALL.len());
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    #[test]
    fn derived_triggers_are_deterministic() {
        let a = FaultPlan::transient(FaultKind::DropEvent, 99);
        let b = FaultPlan::transient(FaultKind::DropEvent, 99);
        assert_eq!(a.trigger_index(), b.trigger_index());
        assert_eq!(a.delay_epochs(), b.delay_epochs());
        assert_eq!(a.flip_epoch(), b.flip_epoch());
        assert!(a.delay_epochs() >= 1);
        assert!(a.trigger_index() >= 1);
    }
}
