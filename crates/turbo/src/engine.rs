//! The turbo executor: one dense coalescing pool swept in vertex order.
//!
//! # Scheduling
//!
//! GraphPulse's event queue is direct-mapped and drained bin by bin in
//! vertex order (§IV) — there is no priority structure. In software that
//! is one pending delta per vertex plus an `active` bitmap: a deposit
//! coalesces when the vertex's bit is set and otherwise stores the delta
//! and sets it, and a round is one sweep over the bitmap, word by word,
//! set bits in ascending order. Vertex order comes from the bit positions,
//! so nothing is sorted, nothing is ever filed twice, and the `pending`
//! column and the CSR rows are read front to back.
//!
//! # Lookahead
//!
//! A propagated delta is deposited the moment it is generated, as the
//! hardware inserts a generated event into its coalescing queue at once. A
//! target the sweep has not reached yet — a higher vertex id, higher bits
//! of the word being walked included — is therefore processed in the
//! *same* round, with everything that coalesced into it meanwhile; a
//! target at or behind the sweep position (a self-loop included) waits for
//! the next round. This is the lookahead of §IV / Fig. 8: a chain laid out
//! in ascending id order settles in one round instead of one round per
//! hop, and a round stops being a BSP superstep.
//!
//! # One pool, resident
//!
//! The pool is not partitioned and the run is single-threaded. A
//! vertex-sharded variant (contiguous ranges swept on worker threads,
//! cross-shard deltas merged at a round barrier) was measured and deleted:
//! a shard boundary ends the lookahead, which cost 1.17–1.51× the events,
//! and two threads never earned that back (EXPERIMENTS.md, "Sharded
//! turbo"). The outcome — value bits, every counter, the round log — is a
//! pure function of the input.
//!
//! The pool is a [`DeltaPool`], the coalescing column incremental seeding
//! accumulates in too, and [`run_turbo_with`] runs on one the caller keeps
//! across runs. A run ends only when no bit is set, and the sweep clears
//! every bit it takes, so a finished run leaves the pool empty: the next
//! run (or seed plan) starts from a clean pool without touching its
//! `n`-length column, and reusing a pool costs its counters. [`run_turbo`]
//! and [`run_turbo_seeded`] are one run on a fresh pool.

use gp_algorithms::engine::{apply_event, for_each_propagated, EventCounts};
use gp_algorithms::{DeltaAlgorithm, DeltaPool};
use gp_graph::{GraphView, VertexId};

/// Run options for [`run_turbo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TurboConfig {
    /// Deterministic lost-event fault injection (`None` = clean run).
    pub fault: Option<StaleFault>,
}

/// A deterministic corruption of the scheduling state: after the
/// `after_rounds`-th sweep, one set bit of the `active` bitmap (the
/// `pick`-th in vertex order) is cleared — an SRAM upset in the
/// occupancy column. The victim's pending delta is never swept, and the
/// next deposit to that vertex overwrites it instead of coalescing, so the
/// delta is lost either way and [`TurboOutcome::check_lost_events`]
/// reports the broken conservation identity: the fault is always caught,
/// never a silent corruption. It does nothing if no bit is set at the
/// trigger point (the run had already converged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleFault {
    /// Sweep count after which the corruption fires.
    pub after_rounds: u64,
    /// Selects the victim among the vertices active at the trigger point.
    pub pick: u64,
}

/// What one [`run_turbo_with`] did: the work counters and the round
/// log. The values are the typed slice the caller passed in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurboRun {
    /// Events generated, coalesced and processed; a finished run satisfies
    /// [`EventCounts::check`] unless the scheduler lost a pending delta
    /// ([`StaleFault`] is the canonical cause).
    pub events: EventCounts,
    /// Rounds: sweeps executed until no vertex was active.
    pub rounds: u64,
    /// Events processed by each sweep; one entry per round.
    pub round_log: Vec<u64>,
}

impl TurboRun {
    /// Renders the counters and the round log as a stable, deterministic
    /// text block — two identical runs must produce byte-identical output,
    /// which the determinism tests rely on.
    #[must_use]
    pub fn render_log(&self) -> String {
        use std::fmt::Write as _;
        let e = &self.events;
        let mut s = format!(
            "turbo: rounds={} processed={} generated={} coalesced={}\n",
            self.rounds, e.processed, e.generated, e.coalesced,
        );
        for (round, processed) in self.round_log.iter().enumerate() {
            let _ = writeln!(s, "round {round} processed={processed}");
        }
        s
    }
}

/// Result of a [`run_turbo`] execution: a [`TurboRun`] plus the values
/// projected to `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct TurboOutcome {
    /// Final vertex values projected to `f64` via
    /// [`DeltaAlgorithm::value_to_f64`].
    pub values: Vec<f64>,
    /// Events applied to vertex state (post-coalescing), the paper's
    /// throughput denominator.
    pub events_processed: u64,
    /// Events generated by seeds and propagation (pre-coalescing).
    pub events_generated: u64,
    /// Events absorbed in place into an already-pending delta.
    pub events_coalesced: u64,
    /// Always 0: a swept bitmap files a vertex once, so no entry can go
    /// stale. Kept because the repo benchmark reads the field.
    pub stale_entries: u64,
    /// Always 0, for the same reason as [`TurboOutcome::stale_entries`].
    pub reschedules: u64,
    /// Rounds: sweeps executed until no vertex was active.
    pub rounds: u64,
    /// Events processed by each sweep; one entry per round.
    pub round_log: Vec<u64>,
}

impl TurboOutcome {
    fn new(run: TurboRun, values: Vec<f64>) -> Self {
        TurboOutcome {
            values,
            events_processed: run.events.processed,
            events_generated: run.events.generated,
            events_coalesced: run.events.coalesced,
            stale_entries: 0,
            reschedules: 0,
            rounds: run.rounds,
            round_log: run.round_log,
        }
    }

    /// The counters and the round log, without the values.
    fn run(&self) -> TurboRun {
        TurboRun {
            events: EventCounts {
                generated: self.events_generated,
                coalesced: self.events_coalesced,
                processed: self.events_processed,
            },
            rounds: self.rounds,
            round_log: self.round_log.clone(),
        }
    }

    /// In-engine lost-event check: [`EventCounts::check`] of this run.
    ///
    /// # Errors
    ///
    /// Returns a message naming the lost-event count and the violated
    /// conservation identity.
    pub fn check_lost_events(&self) -> Result<(), String> {
        self.run().events.check()
    }

    /// [`TurboRun::render_log`] of this run.
    #[must_use]
    pub fn render_log(&self) -> String {
        self.run().render_log()
    }
}

/// Runs `algo` on `graph` from `values` (updated in place) with `seeds`
/// as the initial events, on the caller's resident `pool`; the counterpart
/// of [`run_turbo_seeded`] with the same values, counters and round log. A
/// finished run leaves the pool empty, so a run costs what it touches plus
/// one pass over the `n / 64` bitmap words per round — no allocation, no
/// `n`-length fill, no `f64` projection. The graph may change between runs
/// on one pool (a compacted overlay, a newer epoch) as long as its vertex
/// count does not, and the pool may take an
/// [`incremental_seeds_with`](gp_algorithms::incremental_seeds_with) plan
/// in between, which drains it empty too.
///
/// # Panics
///
/// Panics, before any state is touched, if the graph's vertex count is not
/// the pool's, `values.len()` is not the vertex count, or a seed vertex is
/// out of range.
pub fn run_turbo_with<A: DeltaAlgorithm, G: GraphView>(
    pool: &mut DeltaPool<A>,
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    seeds: &[(VertexId, A::Delta)],
    cfg: &TurboConfig,
) -> TurboRun {
    let n = pool.num_vertices();
    assert_eq!(
        graph.num_vertices(),
        n,
        "turbo pool built for {n} vertices run on a graph of {}",
        graph.num_vertices()
    );
    assert_eq!(values.len(), n, "state length must match the vertex count");
    // Checked before the first deposit: a panic mid-deposit would leave
    // bits set in a pool the next run reuses.
    if let Some((v, _)) = seeds.iter().find(|(v, _)| v.index() >= n) {
        panic!("seed vertex {v:?} out of range");
    }
    debug_assert!(!pool.has_active(), "a finished run leaves no bit set");
    for &(v, d) in seeds {
        pool.deposit(algo, v.get(), d);
    }

    let mut fault = cfg.fault;
    let mut round_log = Vec::new();
    while pool.has_active() {
        round_log.push(sweep(pool, algo, graph, values));
        if let Some(f) = fault.filter(|f| round_log.len() as u64 >= f.after_rounds) {
            fault = None;
            pool.clear_nth_active(f.pick);
        }
    }

    let (generated, coalesced) = pool.take_counts();
    TurboRun {
        events: EventCounts {
            generated,
            coalesced,
            processed: round_log.iter().sum(),
        },
        rounds: round_log.len() as u64,
        round_log,
    }
}

/// One round: [`DeltaPool::sweep`] applying each delta to `values` and
/// depositing what it propagates at once, so a target ahead of the source
/// is processed later in this same round and one at or behind it waits for
/// the next. Returns the events processed.
fn sweep<A: DeltaAlgorithm, G: GraphView>(
    pool: &mut DeltaPool<A>,
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
) -> u64 {
    pool.sweep(|pool, vi, delta| {
        let u = VertexId::new(vi as u32);
        if let Some(basis) = apply_event(algo, values, u, delta) {
            for_each_propagated(algo, graph, u, basis, |v, d| pool.deposit(algo, v.get(), d));
        }
    })
}

/// Runs `algo` on `graph` with the turbo executor.
///
/// Semantically equivalent to
/// [`run_sequential`](gp_algorithms::engine::run_sequential) — same
/// coalescing invariant, same local-termination rule — but drains the
/// paper's way (§IV): rounds that sweep the active vertices in vertex-id
/// order, depositing in place so a delta that lands ahead of the sweep is
/// processed in the same round. Deterministic: identical inputs give
/// bit-identical values, counters, and round logs.
pub fn run_turbo<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    cfg: &TurboConfig,
) -> TurboOutcome {
    let (mut values, seeds) = gp_algorithms::engine::initial_state(algo, graph);
    run_turbo_seeded(algo, graph, &mut values, &seeds, cfg)
}

/// Runs `algo` on `graph` from explicit warm-start state: `values` holds
/// the starting vertex states (updated in place, typed — read them back
/// for exact results), `seeds` the initial events. The turbo analogue of
/// [`run_sequential_seeded`](gp_algorithms::engine::run_sequential_seeded):
/// a cold [`run_turbo`] is the special case of
/// [`initial_state`](gp_algorithms::engine::initial_state) values plus the
/// `initial_delta` seed set. Duplicate seeds for one vertex coalesce in
/// seed order, exactly as cascaded deposits would.
///
/// [`run_turbo_with`] on a fresh pool, plus the `f64` projection of the
/// values; a caller that runs repeatedly on graphs of one size keeps a
/// pool instead, as `gp-stream`'s incremental engine and `gp-serve`'s
/// executors do.
///
/// # Panics
///
/// Panics if `values.len() != graph.num_vertices()` or a seed vertex is
/// out of range.
pub fn run_turbo_seeded<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    seeds: &[(VertexId, A::Delta)],
    cfg: &TurboConfig,
) -> TurboOutcome {
    // The pool outlives the projection. Freed first, its column's space
    // goes to the projection, which moves later allocations: `mapped-r16`'s
    // peak RSS rose by 7 MiB of 41 that way.
    let mut pool = DeltaPool::new(algo, graph.num_vertices());
    let run = run_turbo_with(&mut pool, algo, graph, values, seeds, cfg);
    TurboOutcome::new(run, values.iter().map(|&v| algo.value_to_f64(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::engine::{run_sequential, run_sequential_seeded};
    use gp_algorithms::{
        same_bits, Adsorption, AdsorptionParams, Bfs, ConnectedComponents, PageRankDelta, Sssp,
        Sswp,
    };
    use gp_graph::generators::{erdos_renyi, rmat, RmatConfig, WeightMode};
    use gp_graph::GraphBuilder;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        gp_algorithms::max_abs_diff(a, b)
    }

    #[test]
    fn matches_golden_on_pagerank() {
        let g = rmat(&RmatConfig::graph500(512, 4_096), 11);
        let pr = PageRankDelta::new(0.85, 1e-9);
        let turbo = run_turbo(&pr, &g, &TurboConfig::default());
        let golden = run_sequential(&pr, &g);
        assert!(max_abs_diff(&turbo.values, &golden.values) < 1e-5);
        turbo.check_lost_events().unwrap();
        assert!(turbo.events_processed > 0);
    }

    #[test]
    fn matches_golden_exactly_on_monotone_algorithms() {
        let g = erdos_renyi(400, 2_400, WeightMode::Uniform(1.0, 8.0), 5);
        let root = VertexId::new(0);
        let cfg = TurboConfig::default();

        let t = run_turbo(&Sssp::new(root), &g, &cfg);
        let s = run_sequential(&Sssp::new(root), &g);
        assert_eq!(t.values, s.values, "sssp must be bit-exact");
        t.check_lost_events().unwrap();

        let t = run_turbo(&Bfs::new(root), &g, &cfg);
        let s = run_sequential(&Bfs::new(root), &g);
        assert_eq!(t.values, s.values, "bfs must be bit-exact");
        t.check_lost_events().unwrap();

        let t = run_turbo(&ConnectedComponents::new(), &g, &cfg);
        let s = run_sequential(&ConnectedComponents::new(), &g);
        assert_eq!(t.values, s.values, "cc must be bit-exact");
        t.check_lost_events().unwrap();

        let t = run_turbo(&Sswp::new(root), &g, &cfg);
        let s = run_sequential(&Sswp::new(root), &g);
        assert_eq!(t.values, s.values, "sswp must be bit-exact");
        t.check_lost_events().unwrap();
    }

    #[test]
    fn adsorption_within_tolerance_of_golden() {
        use gp_algorithms::normalize_inbound;
        let g = normalize_inbound(&erdos_renyi(200, 1_600, WeightMode::Uniform(0.5, 2.0), 7));
        let ads = Adsorption::new(AdsorptionParams::random(200, 7), 1e-9);
        let turbo = run_turbo(&ads, &g, &TurboConfig::default());
        let golden = run_sequential(&ads, &g);
        assert!(max_abs_diff(&turbo.values, &golden.values) < ads.comparison_tolerance());
        turbo.check_lost_events().unwrap();
    }

    #[test]
    fn seeded_cold_start_reproduces_run_turbo() {
        use gp_algorithms::engine::initial_state;
        let g = rmat(&RmatConfig::graph500(256, 2_048), 9);
        let algo = Sssp::new(VertexId::new(0));
        let cold = run_turbo(&algo, &g, &TurboConfig::default());
        let (mut values, seeds) = initial_state(&algo, &g);
        let seeded = run_turbo_seeded(&algo, &g, &mut values, &seeds, &TurboConfig::default());
        assert_eq!(cold.values, seeded.values);
        assert_eq!(cold.events_processed, seeded.events_processed);
        // Typed state in the caller's slice matches the f64 projection.
        let typed: Vec<f64> = values.iter().map(|&v| algo.value_to_f64(v)).collect();
        assert_eq!(typed, seeded.values);
    }

    #[test]
    fn two_runs_are_bit_identical() {
        let g = rmat(&RmatConfig::graph500(256, 2_048), 3);
        let pr = PageRankDelta::new(0.85, 1e-7);
        let cfg = TurboConfig::default();
        let a = run_turbo(&pr, &g, &cfg);
        let b = run_turbo(&pr, &g, &cfg);
        assert!(same_bits(&a.values, &b.values));
        assert_eq!(a.render_log(), b.render_log());
    }

    /// Vertex `n - 1` is the last bit of the last word at n = 64 and 128,
    /// the first bit of a second word at n = 65, and alone at n = 1.
    #[test]
    fn bitmap_edges_duplicate_seeds_and_self_loops_match_golden() {
        for n in [0usize, 1, 63, 64, 65, 128] {
            // A ring with a self-loop on the last vertex.
            let mut b = GraphBuilder::new(n);
            b.weighted(true).drop_self_loops(false);
            for v in 0..n {
                b.add_edge(
                    VertexId::from_index(v),
                    VertexId::from_index((v + 1) % n),
                    1.0,
                );
            }
            let seeds: Vec<(VertexId, f64)> = match n.checked_sub(1) {
                None => Vec::new(),
                Some(last) => {
                    let last = VertexId::from_index(last);
                    b.add_edge(last, last, 1.0);
                    vec![(last, 5.0), (VertexId::new(0), 3.0), (last, 0.5)]
                }
            };
            let g = b.build();
            let algo = Sssp::new(VertexId::new(0));
            let mut want = vec![f64::INFINITY; n];
            run_sequential_seeded(&algo, &g, &mut want, &seeds);
            let mut values = vec![f64::INFINITY; n];
            let out = run_turbo_seeded(&algo, &g, &mut values, &seeds, &TurboConfig::default());
            assert_eq!(values, want, "n = {n}");
            out.check_lost_events().unwrap();
            assert_eq!(out.events_coalesced > 0, n > 0, "n = {n}");
        }
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = GraphBuilder::new(0).build();
        let out = run_turbo(&PageRankDelta::new(0.85, 1e-4), &g, &TurboConfig::default());
        assert!(out.values.is_empty());
        assert_eq!(out.events_processed, 0);
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn counters_are_consistent() {
        let g = rmat(&RmatConfig::graph500(256, 2_048), 17);
        let out = run_turbo(&PageRankDelta::new(0.85, 1e-7), &g, &TurboConfig::default());
        // Every generated event is either coalesced away or eventually
        // processed; nothing is lost.
        assert_eq!(
            out.events_generated,
            out.events_coalesced + out.events_processed
        );
        out.check_lost_events().unwrap();
        assert_eq!(out.round_log.iter().sum::<u64>(), out.events_processed);
        assert_eq!(out.round_log.len() as u64, out.rounds);
        assert_eq!((out.stale_entries, out.reschedules), (0, 0));
        assert!(out.events_coalesced > 0 && out.events_processed > 0);
    }

    #[test]
    fn stale_fault_never_corrupts_silently() {
        // A cleared bit always loses its delta, which the lost-event check
        // must catch; a fault set past the last sweep finds no bit to
        // clear and must leave the run exact. No configuration may produce
        // wrong values *and* a clean check.
        let g = erdos_renyi(96, 380, WeightMode::Uniform(1.0, 6.0), 13);
        let algo = Sssp::new(VertexId::new(0));
        let golden = run_sequential(&algo, &g);
        let clean_rounds = run_turbo(&algo, &g, &TurboConfig::default()).rounds;
        assert!(clean_rounds > 4);
        let mut detected = 0;
        let mut clean = 0;
        for after_rounds in [2, clean_rounds / 2, clean_rounds - 2, clean_rounds] {
            for pick in 0..6u64 {
                let cfg = TurboConfig {
                    fault: Some(StaleFault { after_rounds, pick }),
                };
                let out = run_turbo(&algo, &g, &cfg);
                match out.check_lost_events() {
                    Err(msg) => {
                        detected += 1;
                        assert!(msg.contains("lost 1 event"), "{msg}");
                        assert!(msg.contains("conservation violated"), "{msg}");
                        assert_eq!(
                            out.events_generated,
                            out.events_coalesced + out.events_processed + 1
                        );
                    }
                    Ok(()) => {
                        clean += 1;
                        assert_eq!(after_rounds, clean_rounds, "a fired fault went unseen");
                        assert_eq!(out.values, golden.values, "clean run must be exact");
                    }
                }
            }
        }
        assert_eq!((detected, clean), (18, 6));
    }

    #[test]
    fn stale_fault_is_deterministic() {
        let g = rmat(&RmatConfig::graph500(128, 1_024), 5);
        let cfg = TurboConfig {
            fault: Some(StaleFault {
                after_rounds: 1,
                pick: 3,
            }),
        };
        let algo = Sssp::new(VertexId::new(0));
        let a = run_turbo(&algo, &g, &cfg);
        let b = run_turbo(&algo, &g, &cfg);
        assert!(a.check_lost_events().is_err());
        assert_eq!(a, b);
    }
}
