//! Software golden engines for the event-driven model.
//!
//! Two functional (un-timed) executors of [`DeltaAlgorithm`]s:
//!
//! * [`run_sequential`] — Algorithm 1 of the paper verbatim: a FIFO
//!   worklist with in-queue coalescing; one event in flight per vertex.
//!   This is the semantic yardstick every timing backend is validated
//!   against.
//! * [`run_bsp`] — synchronous (bulk-synchronous) rounds over deltas, i.e.
//!   the execution order a BSP accelerator such as Graphicionado imposes.
//!   Also reports per-round event counts, which back the Fig. 4 analysis.
//!
//! The event step of Algorithm 1 is written once, here: [`apply_event`]
//! (reduce, store, local termination) and [`for_each_propagated`] (the
//! out-row walk). Both engines above, turbo's sweep, the chaos executor and
//! Graphicionado's rounds (through [`bsp_round`]) call the pair; the cycle
//! model calls [`apply_event`] and walks the edges in its generation
//! streams.

use std::collections::VecDeque;

use gp_graph::{GraphView, VertexId};

use crate::DeltaAlgorithm;

/// Result of a golden-engine run.
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// Final vertex values projected to `f64` via
    /// [`DeltaAlgorithm::value_to_f64`].
    pub values: Vec<f64>,
    /// Number of events popped from the worklist (after coalescing).
    pub events_processed: u64,
    /// Number of events generated (before coalescing).
    pub events_generated: u64,
    /// Rounds executed (BSP engine) or queue-generation sweeps (sequential).
    pub rounds: u64,
}

/// Runs `algo` on `graph` with the FIFO-worklist executor of Algorithm 1.
///
/// Events destined to a vertex that already has a pending event are
/// coalesced in place, exactly like the accelerator's in-place coalescing
/// queue, so at most one event per vertex is ever pending.
///
/// # Examples
///
/// ```
/// use gp_algorithms::{engine, ConnectedComponents};
/// use gp_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId::new(0), VertexId::new(2), 1.0);
/// b.symmetric(true);
/// let g = b.build();
/// let out = engine::run_sequential(&ConnectedComponents::new(), &g);
/// assert_eq!(out.values, vec![2.0, 1.0, 2.0]);
/// ```
pub fn run_sequential<A: DeltaAlgorithm, G: GraphView>(algo: &A, graph: &G) -> EngineOutput {
    let (mut values, seeds) = initial_state(algo, graph);
    run_sequential_seeded(algo, graph, &mut values, &seeds)
}

/// The init vertex states and [`initial_delta`](DeltaAlgorithm::initial_delta)
/// seed set of a cold start — the explicit-state inputs that make
/// [`run_sequential_seeded`] reproduce [`run_sequential`] exactly. Warm
/// starts (incremental recomputation) swap these for converged values and
/// a computed seed plan.
#[allow(clippy::type_complexity)]
pub fn initial_state<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
) -> (Vec<A::Value>, Vec<(VertexId, A::Delta)>) {
    let values = (0..graph.num_vertices())
        .map(|v| algo.init_value(VertexId::from_index(v)))
        .collect();
    let seeds = graph
        .vertex_ids()
        .filter_map(|v| algo.initial_delta(v).map(|d| (v, d)))
        .collect();
    (values, seeds)
}

/// Lines 6–8 of Algorithm 1, the first half of the one event step every
/// engine takes: reduces `delta` into `u`'s value, stores the result, and
/// tests local termination (Table II). Returns the basis `u` propagates,
/// or `None` when the change is too small to pass on.
#[inline]
pub fn apply_event<A: DeltaAlgorithm>(
    algo: &A,
    values: &mut [A::Value],
    u: VertexId,
    delta: A::Delta,
) -> Option<A::Delta> {
    let old = values[u.index()];
    let new = algo.reduce(old, delta);
    values[u.index()] = new;
    algo.propagation_basis(old, new)
}

/// Lines 9–12 of Algorithm 1, the second half of the event step: hands
/// `emit` the target and delta of every event `u` propagates with `basis`,
/// along its out-row in row order. Returns the row length. The row is
/// walked in one `for_each`, so its storage is matched once per event.
#[inline]
pub fn for_each_propagated<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    u: VertexId,
    basis: A::Delta,
    mut emit: impl FnMut(VertexId, A::Delta),
) -> u32 {
    let row = graph.out_edges(u);
    let degree = row.len() as u32;
    row.for_each(|edge| {
        if let Some(d) = algo.propagate(basis, u, degree, edge) {
            emit(edge.other, d);
        }
    });
    degree
}

/// Runs `algo` from explicit state: `values` holds the warm-start vertex
/// states (updated in place), `seeds` the initial events. This is the
/// golden executor behind incremental recomputation — a full run is the
/// special case of init values plus the
/// [`initial_delta`](DeltaAlgorithm::initial_delta) seed set, which is
/// exactly how [`run_sequential`] is implemented.
///
/// Duplicate seeds for one vertex are coalesced in worklist order.
///
/// # Panics
///
/// Panics, before any state is touched, if `values.len() !=
/// graph.num_vertices()` or a seed vertex is out of range.
pub fn run_sequential_seeded<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    seeds: &[(VertexId, A::Delta)],
) -> EngineOutput {
    let n = graph.num_vertices();
    assert_eq!(values.len(), n, "state length must match the vertex count");
    if let Some((v, _)) = seeds.iter().find(|(v, _)| v.index() >= n) {
        panic!("seed vertex {v:?} out of range");
    }
    let mut pending: Vec<Option<A::Delta>> = vec![None; n];
    let mut worklist = VecDeque::new();
    let deposit = |pending: &mut [Option<A::Delta>], worklist: &mut VecDeque<_>, v: VertexId, d| {
        match &mut pending[v.index()] {
            Some(existing) => *existing = algo.coalesce(*existing, d),
            slot => {
                *slot = Some(d);
                worklist.push_back(v);
            }
        }
    };

    let mut events_generated = seeds.len() as u64;
    let mut events_processed = 0u64;
    for &(v, d) in seeds {
        deposit(&mut pending, &mut worklist, v, d);
    }
    while let Some(u) = worklist.pop_front() {
        let delta = pending[u.index()]
            .take()
            .expect("worklist entry without delta");
        events_processed += 1;
        if let Some(basis) = apply_event(algo, values, u, delta) {
            for_each_propagated(algo, graph, u, basis, |v, d| {
                events_generated += 1;
                deposit(&mut pending, &mut worklist, v, d);
            });
        }
    }

    EngineOutput {
        values: values.iter().map(|&v| algo.value_to_f64(v)).collect(),
        events_processed,
        events_generated,
        rounds: 0,
    }
}

/// Per-round statistics from [`bsp_round`], logged by [`run_bsp`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BspRound {
    /// Events applied: the vertices active at the start of the round.
    pub processed: u64,
    /// Events generated during the round, before coalescing.
    pub produced: u64,
    /// Events remaining after coalescing (i.e. active vertices next round).
    pub coalesced: u64,
    /// Out-edges walked by the round's vertices that passed local
    /// termination — what a BSP pipeline processes.
    pub active_edges: u64,
}

/// One bulk-synchronous round: applies every pending delta of `current` in
/// ascending vertex order and coalesces what they propagate into a fresh
/// delta set, which replaces `current` at the barrier. [`run_bsp`] loops
/// over it, and so does the Graphicionado model.
pub fn bsp_round<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    current: &mut Vec<Option<A::Delta>>,
) -> BspRound {
    let mut next: Vec<Option<A::Delta>> = vec![None; current.len()];
    let mut round = BspRound::default();
    for (u, slot) in current.iter_mut().enumerate() {
        let Some(delta) = slot.take() else {
            continue;
        };
        round.processed += 1;
        let u = VertexId::from_index(u);
        if let Some(basis) = apply_event(algo, values, u, delta) {
            let degree = for_each_propagated(algo, graph, u, basis, |v, d| {
                round.produced += 1;
                let slot = &mut next[v.index()];
                *slot = Some(match *slot {
                    Some(existing) => algo.coalesce(existing, d),
                    None => {
                        round.coalesced += 1;
                        d
                    }
                });
            });
            round.active_edges += u64::from(degree);
        }
    }
    *current = next;
    round
}

/// Runs `algo` with bulk-synchronous rounds: all pending deltas are applied
/// at a barrier, then all propagations of the round are coalesced into the
/// next round's delta set. Returns the output plus per-round counts —
/// the raw data behind Fig. 4 of the paper.
///
/// `max_rounds` bounds runaway configurations (returns early with partial
/// values if exceeded).
pub fn run_bsp<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    max_rounds: u64,
) -> (EngineOutput, Vec<BspRound>) {
    let (mut values, mut current) = bsp_state(algo, graph);
    let mut events_generated = current.iter().flatten().count() as u64;
    let mut rounds_log: Vec<BspRound> = Vec::new();
    while (rounds_log.len() as u64) < max_rounds && current.iter().any(Option::is_some) {
        let round = bsp_round(algo, graph, &mut values, &mut current);
        events_generated += round.produced;
        rounds_log.push(round);
    }

    (
        EngineOutput {
            values: values.into_iter().map(|v| algo.value_to_f64(v)).collect(),
            events_processed: rounds_log.iter().map(|r| r.processed).sum(),
            events_generated,
            rounds: rounds_log.len() as u64,
        },
        rounds_log,
    )
}

/// The init vertex states and the dense delta set a cold BSP run starts
/// from: [`initial_state`] with the seeds filed by vertex.
#[allow(clippy::type_complexity)]
pub fn bsp_state<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
) -> (Vec<A::Value>, Vec<Option<A::Delta>>) {
    let (values, seeds) = initial_state(algo, graph);
    let mut current = vec![None; values.len()];
    for (v, d) in seeds {
        current[v.index()] = Some(d);
    }
    (values, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bfs, ConnectedComponents, PageRankDelta, Sssp};
    use gp_graph::generators::{erdos_renyi, watts_strogatz, WeightMode};
    use gp_graph::GraphBuilder;

    #[test]
    fn sequential_and_bsp_agree_on_pagerank() {
        let g = erdos_renyi(200, 1_200, WeightMode::Unweighted, 3);
        let pr = PageRankDelta::new(0.85, 1e-9);
        let seq = run_sequential(&pr, &g);
        let (bsp, rounds) = run_bsp(&pr, &g, 10_000);
        assert!(crate::max_abs_diff(&seq.values, &bsp.values) < 1e-5);
        assert!(!rounds.is_empty());
    }

    #[test]
    fn bsp_round_log_shrinks_for_pagerank() {
        let g = erdos_renyi(300, 2_400, WeightMode::Unweighted, 5);
        let pr = PageRankDelta::new(0.85, 1e-4);
        let (_, rounds) = run_bsp(&pr, &g, 10_000);
        // Coalescing caps pending events at the vertex count.
        assert!(rounds.iter().all(|r| r.coalesced <= 300));
        // Convergence: the final rounds are smaller than the peak.
        let peak = rounds.iter().map(|r| r.produced).max().unwrap();
        assert!(rounds.last().unwrap().produced < peak);
    }

    #[test]
    fn sssp_matches_bfs_on_unit_weights() {
        let g = watts_strogatz(100, 3, 0.2, WeightMode::Unweighted, 8);
        let sssp = run_sequential(&Sssp::new(gp_graph::VertexId::new(0)), &g);
        let bfs = run_sequential(&Bfs::new(gp_graph::VertexId::new(0)), &g);
        assert!(crate::max_abs_diff(&sssp.values, &bfs.values) < 1e-9);
    }

    #[test]
    fn cc_handles_disconnected_graphs() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(gp_graph::VertexId::new(0), gp_graph::VertexId::new(1), 1.0);
        b.add_edge(gp_graph::VertexId::new(3), gp_graph::VertexId::new(4), 1.0);
        b.symmetric(true);
        let g = b.build();
        let out = run_sequential(&ConnectedComponents::new(), &g);
        assert_eq!(out.values, vec![1.0, 1.0, 2.0, 4.0, 4.0]);
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = GraphBuilder::new(0).build();
        let out = run_sequential(&PageRankDelta::new(0.85, 1e-4), &g);
        assert!(out.values.is_empty());
        assert_eq!(out.events_processed, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sequential_refuses_an_out_of_range_seed() {
        let g = erdos_renyi(8, 16, WeightMode::Unweighted, 2);
        let bfs = Bfs::new(VertexId::new(0));
        let (mut values, _) = initial_state(&bfs, &g);
        // A good seed ahead of the bad one: the check runs before any deposit.
        let seeds = [(VertexId::new(0), 0), (VertexId::new(8), 0)];
        run_sequential_seeded(&bfs, &g, &mut values, &seeds);
    }

    #[test]
    fn bsp_respects_round_cap() {
        let g = erdos_renyi(50, 300, WeightMode::Unweighted, 1);
        let pr = PageRankDelta::new(0.85, 0.0); // never locally terminates
        let (out, rounds) = run_bsp(&pr, &g, 5);
        assert_eq!(out.rounds, 5);
        assert_eq!(rounds.len(), 5);
    }
}
