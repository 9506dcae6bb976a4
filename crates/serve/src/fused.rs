//! Multi-source frontier fusion: up to [`LANES`] single-source path
//! queries executed as **one** event-driven run.
//!
//! The executor batches same-class path queries (SSSP / BFS / SSWP) whose
//! sources differ and runs them as a single [`FusedPaths`] instance whose
//! per-vertex state is a lane vector `[f64; LANES]` — lane `l` carries the
//! value of the `l`-th source's single-source problem. Reduce, coalesce,
//! and propagate apply the class's semiring *lane-wise*, so one graph
//! traversal (one pass over the CSR per frontier wave, shared cache
//! blocks, shared scheduling) services every lane at once.
//!
//! Because each lane's operators are exactly the single-source
//! algorithm's (`min`/`+w` for SSSP, `min`/`+1` for BFS, `max`/`min(w)`
//! for SSWP) and min/max fixed points are unique regardless of event
//! order, every lane's result is **bit-identical** to a standalone run of
//! the corresponding [`Sssp`](gp_algorithms::Sssp) /
//! [`Bfs`](gp_algorithms::Bfs) / [`Sswp`](gp_algorithms::Sswp) projected
//! through `value_to_f64` — the property `fused_lanes_match_single_source`
//! pins. Idle lanes hold the semiring identity and are self-silencing:
//! `∞ + w = ∞` and `min(0, w) = 0` never beat a stored identity, so they
//! add no events beyond the shared traversal itself.

use gp_algorithms::DeltaAlgorithm;
use gp_graph::{EdgeRef, VertexId};

/// Lane count of a fused run: how many same-class sources share one
/// traversal. Eight keeps the per-vertex state at one cache line.
pub const LANES: usize = 8;

/// Which single-source semiring every lane of a [`FusedPaths`] run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// Shortest paths: `reduce = min`, `propagate = basis + w`.
    Sssp,
    /// Hop counts: `reduce = min`, `propagate = basis + 1`.
    Bfs,
    /// Widest paths: `reduce = max`, `propagate = min(basis, w)`.
    Sswp,
}

impl PathKind {
    /// Value a vertex starts at (the reduce identity).
    fn init(self) -> f64 {
        match self {
            PathKind::Sssp | PathKind::Bfs => f64::INFINITY,
            PathKind::Sswp => 0.0,
        }
    }

    /// Seed delta deposited at a lane's source vertex.
    fn seed(self) -> f64 {
        match self {
            PathKind::Sssp | PathKind::Bfs => 0.0,
            PathKind::Sswp => f64::INFINITY,
        }
    }

    /// Lane-wise reduce/coalesce operator.
    fn reduce(self, a: f64, b: f64) -> f64 {
        match self {
            PathKind::Sssp | PathKind::Bfs => a.min(b),
            PathKind::Sswp => a.max(b),
        }
    }

    /// Whether `new` improves on `old` (strict, matching the
    /// single-source `propagation_basis` rules).
    fn improves(self, new: f64, old: f64) -> bool {
        match self {
            PathKind::Sssp | PathKind::Bfs => new < old,
            PathKind::Sswp => new > old,
        }
    }

    /// Per-edge propagation of one lane's basis.
    fn propagate(self, basis: f64, weight: f32) -> f64 {
        match self {
            PathKind::Sssp => basis + f64::from(weight),
            PathKind::Bfs => basis + 1.0,
            PathKind::Sswp => basis.min(f64::from(weight)),
        }
    }
}

/// Up to [`LANES`] same-class single-source problems fused into one
/// delta-accumulative run. Unused lanes (when fewer than [`LANES`] sources
/// are batched) stay at the identity throughout.
#[derive(Debug, Clone)]
pub struct FusedPaths {
    kind: PathKind,
    sources: Vec<VertexId>,
}

impl FusedPaths {
    /// Fuses `sources` (1..=[`LANES`] of them) into one `kind` run.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or holds more than [`LANES`] entries.
    pub fn new(kind: PathKind, sources: &[VertexId]) -> Self {
        assert!(
            !sources.is_empty() && sources.len() <= LANES,
            "fused run needs 1..={LANES} sources, got {}",
            sources.len()
        );
        FusedPaths {
            kind,
            sources: sources.to_vec(),
        }
    }

    /// The semiring every lane runs.
    pub fn kind(&self) -> PathKind {
        self.kind
    }

    /// The fused sources; lane `l` solves from `sources()[l]`.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Identity-filled lane vector.
    fn identity_lanes(&self) -> [f64; LANES] {
        [self.kind.init(); LANES]
    }
}

impl DeltaAlgorithm for FusedPaths {
    type Value = [f64; LANES];
    type Delta = [f64; LANES];

    fn name(&self) -> &'static str {
        match self.kind {
            PathKind::Sssp => "fused-sssp",
            PathKind::Bfs => "fused-bfs",
            PathKind::Sswp => "fused-sswp",
        }
    }

    fn needs_weights(&self) -> bool {
        matches!(self.kind, PathKind::Sssp | PathKind::Sswp)
    }

    fn init_value(&self, _v: VertexId) -> [f64; LANES] {
        self.identity_lanes()
    }

    fn identity_delta(&self) -> [f64; LANES] {
        self.identity_lanes()
    }

    fn initial_delta(&self, v: VertexId) -> Option<[f64; LANES]> {
        let mut lanes = self.identity_lanes();
        let mut any = false;
        for (l, &s) in self.sources.iter().enumerate() {
            if s == v {
                lanes[l] = self.kind.seed();
                any = true;
            }
        }
        any.then_some(lanes)
    }

    fn reduce(&self, value: [f64; LANES], delta: [f64; LANES]) -> [f64; LANES] {
        std::array::from_fn(|l| self.kind.reduce(value[l], delta[l]))
    }

    fn coalesce(&self, a: [f64; LANES], b: [f64; LANES]) -> [f64; LANES] {
        std::array::from_fn(|l| self.kind.reduce(a[l], b[l]))
    }

    fn propagation_basis(&self, old: [f64; LANES], new: [f64; LANES]) -> Option<[f64; LANES]> {
        // Only lanes that improved re-propagate; the rest are masked to
        // the identity, exactly like a standalone run that saw no change.
        let mut basis = self.identity_lanes();
        let mut any = false;
        for l in 0..LANES {
            if self.kind.improves(new[l], old[l]) {
                basis[l] = new[l];
                any = true;
            }
        }
        any.then_some(basis)
    }

    fn propagate(
        &self,
        basis: [f64; LANES],
        _src: VertexId,
        _src_out_degree: u32,
        edge: EdgeRef,
    ) -> Option<[f64; LANES]> {
        let identity = self.kind.init();
        let mut out = self.identity_lanes();
        let mut any = false;
        for l in 0..LANES {
            if basis[l] != identity {
                out[l] = self.kind.propagate(basis[l], edge.weight);
                any = true;
            }
        }
        any.then_some(out)
    }

    /// Lane 0's value — fused results are read per lane via the typed
    /// state, not through this projection.
    fn value_to_f64(&self, v: [f64; LANES]) -> f64 {
        v[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::engine::run_sequential;
    use gp_algorithms::{Bfs, Sssp, Sswp};
    use gp_graph::generators::{rmat, RmatConfig, WeightMode};
    use gp_graph::rng::{Rng, StdRng};
    use gp_turbo::{run_turbo, run_turbo_seeded, TurboConfig};

    fn weighted_rmat(seed: u64) -> gp_graph::CsrGraph {
        let mut cfg = RmatConfig::graph500(512, 4_096);
        cfg.weights = WeightMode::Uniform(1.0, 9.0);
        rmat(&cfg, seed)
    }

    #[test]
    fn fused_lanes_match_single_source() {
        let g = weighted_rmat(13);
        let mut rng = StdRng::seed_from_u64(99);
        let sources: Vec<VertexId> = (0..LANES)
            .map(|_| VertexId::new(rng.gen_range(0..512u32)))
            .collect();
        for kind in [PathKind::Sssp, PathKind::Bfs, PathKind::Sswp] {
            let fused = FusedPaths::new(kind, &sources);
            let (mut values, seeds) = gp_algorithms::engine::initial_state(&fused, &g);
            run_turbo_seeded(&fused, &g, &mut values, &seeds, &TurboConfig::default());
            for (l, &src) in sources.iter().enumerate() {
                let single: Vec<f64> = match kind {
                    PathKind::Sssp => run_sequential(&Sssp::new(src), &g).values,
                    PathKind::Bfs => run_sequential(&Bfs::new(src), &g).values,
                    PathKind::Sswp => run_sequential(&Sswp::new(src), &g).values,
                };
                let lane: Vec<f64> = values.iter().map(|v| v[l]).collect();
                let lane_bits: Vec<u64> = lane.iter().map(|v| v.to_bits()).collect();
                let single_bits: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    lane_bits, single_bits,
                    "{kind:?} lane {l} (src {src}) diverged from single-source"
                );
            }
        }
    }

    #[test]
    fn duplicate_sources_share_a_lane_result() {
        let g = weighted_rmat(5);
        let src = VertexId::new(7);
        let fused = FusedPaths::new(PathKind::Sssp, &[src, src]);
        let (mut values, seeds) = gp_algorithms::engine::initial_state(&fused, &g);
        run_turbo_seeded(&fused, &g, &mut values, &seeds, &TurboConfig::default());
        assert!(values.iter().all(|v| v[0].to_bits() == v[1].to_bits()));
    }

    #[test]
    fn idle_lanes_stay_at_identity() {
        let g = weighted_rmat(3);
        let fused = FusedPaths::new(PathKind::Sswp, &[VertexId::new(1)]);
        let out = run_turbo(&fused, &g, &TurboConfig::default());
        assert!(out.events_processed > 0);
        let (mut values, seeds) = gp_algorithms::engine::initial_state(&fused, &g);
        run_turbo_seeded(&fused, &g, &mut values, &seeds, &TurboConfig::default());
        for v in &values {
            for lane in v.iter().take(LANES).skip(1) {
                assert_eq!(*lane, 0.0, "idle SSWP lane moved off the identity");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fused run needs")]
    fn too_many_sources_panic() {
        let sources = vec![VertexId::new(0); LANES + 1];
        let _ = FusedPaths::new(PathKind::Bfs, &sources);
    }
}
