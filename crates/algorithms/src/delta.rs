//! The delta-accumulative algorithm abstraction (paper §II-B, Table II).

use std::fmt;

use gp_graph::{EdgeRef, VertexId};

/// A graph algorithm in delta-accumulative form.
///
/// The trait mirrors the paper's programming interface (§III-B): a *reduce*
/// operator applied both to vertex state and to coalescing in-queue events,
/// a *propagate* function producing per-edge contributions, initialization
/// values, and a local termination condition. Every execution backend in
/// this workspace — the sequential golden engine, the BSP engine, the
/// Ligra-style baseline, the Graphicionado model, the turbo sweep engine
/// and the GraphPulse accelerator itself — runs any type implementing this
/// trait. No method is a scheduling hint: the order events drain in is
/// each backend's own business, and the reordering property below is what
/// lets them differ.
///
/// # Contract (the two properties of §II-B)
///
/// * **Reordering**: [`coalesce`](DeltaAlgorithm::coalesce) must be
///   commutative and associative, and
///   [`propagate`](DeltaAlgorithm::propagate) must distribute over it.
///   Floating-point operators satisfy this only up to rounding; backends may
///   therefore produce results differing by small tolerances.
/// * **Simplification**: applying the
///   [`identity_delta`](DeltaAlgorithm::identity_delta) must leave vertex
///   state unchanged, so
///   a vertex whose value did not change conveys nothing to its neighbors.
///
/// These properties are what allow GraphPulse to coalesce in-flight events
/// and to process vertices asynchronously; they are checked for all five
/// bundled algorithms by property tests.
pub trait DeltaAlgorithm: Send + Sync {
    /// Per-vertex state.
    type Value: Copy + PartialEq + fmt::Debug + Send + Sync + 'static;
    /// Event payload.
    type Delta: Copy + fmt::Debug + Send + Sync + 'static;

    /// Short name used in reports ("pagerank-delta", "sssp", ...).
    fn name(&self) -> &'static str;

    /// Whether [`propagate`](DeltaAlgorithm::propagate) reads edge weights;
    /// drives per-edge traffic accounting in the timing models.
    fn needs_weights(&self) -> bool {
        false
    }

    /// Initial vertex state — the identity of the reduce operator, so the
    /// first arriving event fully determines the initial value (§III-A,
    /// *Initialization and Termination*).
    fn init_value(&self, v: VertexId) -> Self::Value;

    /// The delta that leaves any state unchanged under
    /// [`reduce`](DeltaAlgorithm::reduce) (e.g. `0` for sum, `+∞` for min).
    fn identity_delta(&self) -> Self::Delta;

    /// The initial event seeded into the queue for `v`, or `None` when the
    /// vertex starts inactive.
    fn initial_delta(&self, v: VertexId) -> Option<Self::Delta>;

    /// Applies a delta to a vertex state (`state ⊕ delta`).
    fn reduce(&self, value: Self::Value, delta: Self::Delta) -> Self::Value;

    /// Combines two in-flight deltas destined for the same vertex.
    ///
    /// For every Table II algorithm this is the same operator as
    /// [`reduce`](DeltaAlgorithm::reduce) restricted to deltas.
    fn coalesce(&self, a: Self::Delta, b: Self::Delta) -> Self::Delta;

    /// Local termination check (Algorithm 1, line 8): after a vertex moved
    /// from `old` to `new`, returns the outgoing propagation basis `Δu`, or
    /// `None` when the change is too small to propagate.
    fn propagation_basis(&self, old: Self::Value, new: Self::Value) -> Option<Self::Delta>;

    /// `g⟨i,j⟩`: converts the propagation basis into the delta sent along
    /// one out-edge. `None` means the identity (nothing is emitted).
    fn propagate(
        &self,
        basis: Self::Delta,
        src: VertexId,
        src_out_degree: u32,
        edge: EdgeRef,
    ) -> Option<Self::Delta>;

    /// Contribution of a state transition to the global progress
    /// accumulator (§IV-C, *Global Termination Condition*).
    fn progress(&self, _old: Self::Value, _new: Self::Value) -> f64 {
        0.0
    }

    /// Global termination threshold on the per-round progress sum; `None`
    /// terminates only when the event queue empties.
    fn global_threshold(&self) -> Option<f64> {
        None
    }

    /// Projects a final vertex state to `f64` for reporting and comparison.
    fn value_to_f64(&self, v: Self::Value) -> f64;

    /// Absolute tolerance for comparing two backends' final values of this
    /// algorithm.
    ///
    /// The default `0.0` demands exact agreement after
    /// [`value_to_f64`](DeltaAlgorithm::value_to_f64) projection — correct
    /// for the monotone min/max algorithms whose fixed point is reached by
    /// an idempotent reduce regardless of event order. Accumulative
    /// floating-point algorithms (PageRank-Delta, Adsorption) override this
    /// with a small epsilon: §II-B's reordering property holds only up to
    /// rounding for `f64` sums, so different backends legitimately differ in
    /// the last bits.
    fn comparison_tolerance(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    // The trait itself is exercised by each implementation's tests and by
    // the crate-level property suite; here we only pin object safety for
    // the monomorphic helpers used in reports.
    use super::*;
    use crate::PageRankDelta;

    #[test]
    fn trait_is_usable_behind_a_reference() {
        fn takes_generic<A: DeltaAlgorithm>(a: &A) -> &'static str {
            a.name()
        }
        assert_eq!(
            takes_generic(&PageRankDelta::new(0.85, 1e-4)),
            "pagerank-delta"
        );
    }
}
