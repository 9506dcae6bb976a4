//! The turbo executor: a dense coalescing pool swept in vertex order,
//! optionally sharded across worker threads with a deterministic
//! cross-shard merge.
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
//! # Sharded execution
//!
//! With [`TurboConfig::shards`] > 1 the pool and its bitmap are
//! partitioned by contiguous vertex range: shard `i` owns vertices
//! `[i*B, (i+1)*B)` for block size `B = ceil(n / shards)`. Execution
//! proceeds in global *rounds*: every shard sweeps its own range once,
//! depositing in place the deltas whose target it owns and buffering the
//! rest in a per-target-shard outbox. At the end of the round the
//! outboxes are merged in ascending source shard, sweep order within a
//! shard — which, because shards own contiguous ranges and a sweep
//! ascends, is exactly ascending global source vertex. The same discipline
//! (and the same argument) as the shard-parallel cycle engine's inbox
//! merge. A single-shard run owns every target and never puts anything in
//! an outbox.
//!
//! Lookahead stops at a shard's last vertex — a cross-shard delta waits
//! for the barrier — so what a round processes, and with it every counter
//! and the rounding order of an accumulative algorithm's sums, depends on
//! the shard count. What holds at *every* shard count: values bit-exact
//! with the golden engine for the monotone algorithms and within
//! [`comparison_tolerance`](DeltaAlgorithm::comparison_tolerance) for the
//! accumulative ones, and the conservation identity of
//! [`TurboOutcome::check_lost_events`]. And the outcome — value bits,
//! every counter, the round log — is a pure function of the input and the
//! shard count: a shard's sweep reads only its own state as of the last
//! barrier, so thread timing cannot reach it. A sequential driver and a
//! scoped-thread driver execute the identical per-round steps; the
//! threaded driver is used when `shards > 1` and no fault is injected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, RwLock};

use gp_algorithms::DeltaAlgorithm;
use gp_graph::{GraphView, VertexId};

/// Run options for [`run_turbo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TurboConfig {
    /// Vertex shards (0 and 1 both mean single-shard). Shards sweep on
    /// worker threads. The outcome is a deterministic function of the
    /// input and this count: lookahead ends at a shard boundary, so the
    /// counters (and an accumulative algorithm's low-order value bits)
    /// differ between counts, while every count agrees with the golden
    /// engine — bit for bit on the monotone algorithms.
    pub shards: usize,
    /// Deterministic lost-event fault injection (`None` = clean run).
    /// Faulted runs always use the sequential driver so the victim scan
    /// stays a plain global sweep.
    pub fault: Option<StaleFault>,
}

/// A deterministic corruption of the scheduling state: after the
/// `after_rounds`-th sweep, one set bit of the `active` bitmap (the
/// `pick`-th in global vertex order) is cleared — an SRAM upset in the
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

impl Default for TurboConfig {
    fn default() -> Self {
        TurboConfig {
            shards: 1,
            fault: None,
        }
    }
}

/// Result of a [`run_turbo`] execution.
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
    /// Global rounds: sweeps executed until no vertex was active.
    pub rounds: u64,
    /// Events processed by each sweep, summed over shards; one entry per
    /// round.
    pub round_log: Vec<u64>,
}

impl TurboOutcome {
    /// In-engine lost-event check: once no vertex is active, every
    /// generated event must have been coalesced away or processed. A
    /// pending delta dropped by the scheduler ([`StaleFault`] is the
    /// canonical cause) breaks the identity.
    ///
    /// # Errors
    ///
    /// Returns a message naming the lost-event count and the violated
    /// conservation identity.
    pub fn check_lost_events(&self) -> Result<(), String> {
        let accounted = self.events_coalesced + self.events_processed;
        if self.events_generated == accounted {
            return Ok(());
        }
        Err(format!(
            "turbo lost {} event(s) — conservation violated: \
             generated {} != coalesced {} + processed {}",
            self.events_generated.abs_diff(accounted),
            self.events_generated,
            self.events_coalesced,
            self.events_processed,
        ))
    }

    /// Renders the counters and the round log as a stable, deterministic
    /// text block — two identical runs must produce byte-identical output,
    /// which the determinism tests rely on.
    #[must_use]
    pub fn render_log(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "turbo: rounds={} processed={} generated={} coalesced={}\n",
            self.rounds, self.events_processed, self.events_generated, self.events_coalesced,
        );
        for (round, processed) in self.round_log.iter().enumerate() {
            let _ = writeln!(s, "round {round} processed={processed}");
        }
        s
    }
}

/// Per-target-shard delta buffers: `outbox[s]` holds the `(vertex,
/// delta)` pairs a sweep produced for another shard `s`, in propagation
/// order (the sweeping shard's own lane stays empty).
type Outbox<D> = Vec<Vec<(u32, D)>>;

/// One vertex shard: its slice of the dense event pool. At most one
/// pending delta per vertex ever exists (the accelerator's in-place
/// coalescing invariant), held in `pending` and marked in `active`.
struct Shard<A: DeltaAlgorithm> {
    /// First global vertex id this shard owns.
    start: u32,
    /// Number of vertices owned.
    len: usize,
    /// Global routing block size `B`: vertex `v` belongs to shard
    /// `v / B`. Identical on every shard.
    block: usize,
    /// Pending delta per owned vertex; meaningful only where `active` is
    /// set.
    pending: Vec<A::Delta>,
    /// One bit per owned vertex, 64 to a word.
    active: Vec<u64>,
    /// Deposits taken, and how many of them coalesced.
    generated: u64,
    coalesced: u64,
}

impl<A: DeltaAlgorithm> Shard<A> {
    fn new(algo: &A, start: u32, len: usize, block: usize) -> Self {
        Shard {
            start,
            len,
            block,
            pending: vec![algo.identity_delta(); len],
            active: vec![0; len.div_ceil(64)],
            generated: 0,
            coalesced: 0,
        }
    }

    fn has_active(&self) -> bool {
        self.active.iter().any(|&word| word != 0)
    }

    /// Deposits `delta` for the owned vertex `target`: coalesces into the
    /// pending slot if the vertex is already active, otherwise stores the
    /// delta and activates it.
    fn deposit(&mut self, algo: &A, target: u32, delta: A::Delta) {
        self.generated += 1;
        let t = (target - self.start) as usize;
        let bit = 1u64 << (t % 64);
        if self.active[t / 64] & bit != 0 {
            self.coalesced += 1;
            self.pending[t] = algo.coalesce(self.pending[t], delta);
        } else {
            self.pending[t] = delta;
            self.active[t / 64] |= bit;
        }
    }

    /// One round on this shard: walks the bitmap word by word, set bits in
    /// ascending order, applying each delta to the shard's `values` slice.
    /// A delta propagated to an owned vertex is deposited at once, so a
    /// target ahead of the source is swept later in this same round (the
    /// live word is re-read after every vertex; `ahead` masks the bits
    /// already passed) and one at or behind it waits for the next. The
    /// source's bit is cleared before it propagates, so its own self-loop
    /// delta is stored, not coalesced into the delta being applied. Deltas
    /// for other shards are buffered in `outbox[target_shard]`. Returns the
    /// events processed.
    fn sweep<G: GraphView>(
        &mut self,
        algo: &A,
        graph: &G,
        values: &mut [A::Value],
        outbox: &mut [Vec<(u32, A::Delta)>],
    ) -> u64 {
        let mut processed = 0u64;
        for w in 0..self.active.len() {
            let mut ahead = !0u64;
            loop {
                let bits = self.active[w] & ahead;
                if bits == 0 {
                    break;
                }
                let b = bits.trailing_zeros();
                ahead = !1u64 << b;
                self.active[w] &= !(1u64 << b);
                let vi = w * 64 + b as usize;
                processed += 1;
                let u = VertexId::new(self.start + vi as u32);
                let old = values[vi];
                let new = algo.reduce(old, self.pending[vi]);
                values[vi] = new;
                if let Some(basis) = algo.propagation_basis(old, new) {
                    let row = graph.out_edges(u);
                    let degree = row.len() as u32;
                    for edge in row {
                        if let Some(d) = algo.propagate(basis, u, degree, edge) {
                            let target = edge.other.get();
                            if (target.wrapping_sub(self.start) as usize) < self.len {
                                self.deposit(algo, target, d);
                            } else {
                                outbox[target as usize / self.block].push((target, d));
                            }
                        }
                    }
                }
            }
        }
        processed
    }

    /// Applies one source shard's buffered deltas to this shard, in buffer
    /// order. Callers iterate source shards in ascending order, which makes
    /// the overall merge ascending in global source vertex.
    fn absorb(&mut self, algo: &A, entries: &[(u32, A::Delta)]) {
        for &(target, delta) in entries {
            self.deposit(algo, target, delta);
        }
    }
}

/// Clears the `pick`-th set `active` bit across all shards in global
/// vertex order — the [`StaleFault`] upset.
fn inject_stale_fault<A: DeltaAlgorithm>(shards: &mut [Shard<A>], pick: u64) {
    let words = shards.iter().flat_map(|s| &s.active);
    let set: u64 = words.map(|w| u64::from(w.count_ones())).sum();
    if set == 0 {
        return;
    }
    let mut kth = pick % set;
    for word in shards.iter_mut().flat_map(|s| &mut s.active) {
        let ones = u64::from(word.count_ones());
        if kth < ones {
            let below = (0..kth).fold(*word, |bits, _| bits & (bits - 1));
            *word &= !(1 << below.trailing_zeros());
            return;
        }
        kth -= ones;
    }
}

/// Sequential round driver: the reference implementation of the global
/// round protocol, also the only driver that supports fault injection.
/// Returns the events processed by each round.
fn drive_sequential<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    mut fault: Option<StaleFault>,
    shards: &mut [Shard<A>],
    slices: &mut [&mut [A::Value]],
) -> Vec<u64> {
    let s_count = shards.len();
    let mut outboxes: Vec<Outbox<A::Delta>> =
        (0..s_count).map(|_| vec![Vec::new(); s_count]).collect();
    let mut round_log = Vec::new();
    while shards.iter().any(Shard::has_active) {
        let mut processed = 0u64;
        for ((shard, slice), outbox) in shards
            .iter_mut()
            .zip(slices.iter_mut())
            .zip(outboxes.iter_mut())
        {
            for lane in outbox.iter_mut() {
                lane.clear();
            }
            processed += shard.sweep(algo, graph, slice, outbox);
        }
        // Canonical merge: ascending source shard, buffer order within —
        // i.e. ascending global source vertex.
        for outbox in &outboxes {
            for (dst, entries) in outbox.iter().enumerate() {
                shards[dst].absorb(algo, entries);
            }
        }
        round_log.push(processed);
        if let Some(f) = fault.filter(|f| round_log.len() as u64 >= f.after_rounds) {
            fault = None;
            inject_stale_fault(shards, f.pick);
        }
    }
    round_log
}

/// Scoped-thread round driver: one worker per shard, three barriers per
/// round (activity vote → sweep → merge). Executes the identical per-round
/// steps as [`drive_sequential`], in the identical order, so the two are
/// bit-equivalent — the per-round protocol is:
///
/// 1. publish whether any own bit is set, barrier, stop if no shard has
///    one (every worker reads the same published flags);
/// 2. sweep own bitmap, cross-shard deltas into per-target-shard outboxes
///    (write lock on own outbox only), barrier;
/// 3. absorb lane `i` of every outbox in ascending source-shard order
///    (read locks), barrier, repeat.
fn drive_threaded<A: DeltaAlgorithm, G: GraphView + Sync>(
    algo: &A,
    graph: &G,
    shards: &mut [Shard<A>],
    slices: &mut [&mut [A::Value]],
) -> Vec<u64> {
    let s_count = shards.len();
    let barrier = Barrier::new(s_count);
    let active: Vec<AtomicBool> = (0..s_count).map(|_| AtomicBool::new(false)).collect();
    let outboxes: Vec<RwLock<Outbox<A::Delta>>> = (0..s_count)
        .map(|_| RwLock::new(vec![Vec::new(); s_count]))
        .collect();
    let mut worker_logs: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(s_count);
        for (i, (shard, slice)) in shards.iter_mut().zip(slices.iter_mut()).enumerate() {
            let barrier = &barrier;
            let active = &active;
            let outboxes = &outboxes;
            handles.push(scope.spawn(move || {
                let mut log = Vec::new();
                loop {
                    active[i].store(shard.has_active(), Ordering::Relaxed);
                    barrier.wait();
                    // Between this barrier and the merge barrier no worker
                    // writes a flag, so every worker reads the same vote
                    // (the barrier orders the stores before the loads).
                    if !active.iter().any(|a| a.load(Ordering::Relaxed)) {
                        break;
                    }
                    let processed = {
                        let mut outbox = outboxes[i].write().expect("turbo outbox lock poisoned");
                        for lane in outbox.iter_mut() {
                            lane.clear();
                        }
                        shard.sweep(algo, graph, slice, &mut outbox)
                    };
                    barrier.wait();
                    for src in outboxes {
                        let src = src.read().expect("turbo outbox lock poisoned");
                        shard.absorb(algo, &src[i]);
                    }
                    log.push(processed);
                    barrier.wait();
                }
                log
            }));
        }
        for handle in handles {
            worker_logs.push(handle.join().expect("turbo shard worker panicked"));
        }
    });
    // Every worker ran the same global rounds; a round's entry sums each
    // worker's share of it.
    let mut round_log = worker_logs.pop().unwrap_or_default();
    for log in &worker_logs {
        debug_assert_eq!(log.len(), round_log.len());
        for (total, part) in round_log.iter_mut().zip(log) {
            *total += part;
        }
    }
    round_log
}

/// Runs `algo` on `graph` with the turbo executor.
///
/// Semantically equivalent to
/// [`run_sequential`](gp_algorithms::engine::run_sequential) — same
/// coalescing invariant, same local-termination rule — but drains the
/// paper's way (§IV): rounds that sweep the active vertices in vertex-id
/// order, depositing in place so a delta that lands ahead of the sweep is
/// processed in the same round. Deterministic: identical inputs at the same
/// [`TurboConfig::shards`] count give bit-identical values, counters, and
/// round logs (see the module docs for what holds *across* shard counts).
pub fn run_turbo<A: DeltaAlgorithm, G: GraphView + Sync>(
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
/// The incremental engine uses this to re-converge through turbo instead
/// of the golden engine: converged values from the previous fixed point
/// plus a [`SeedPlan`](gp_algorithms::incremental::incremental_seeds)
/// computed against the mutated topology.
///
/// # Panics
///
/// Panics if `values.len() != graph.num_vertices()` or a seed vertex is
/// out of range.
pub fn run_turbo_seeded<A: DeltaAlgorithm, G: GraphView + Sync>(
    algo: &A,
    graph: &G,
    values: &mut [A::Value],
    seeds: &[(VertexId, A::Delta)],
    cfg: &TurboConfig,
) -> TurboOutcome {
    let n = graph.num_vertices();
    assert_eq!(values.len(), n, "state length must match the vertex count");
    for &(v, _) in seeds {
        assert!(v.index() < n, "seed vertex {v:?} out of range");
    }

    let s_count = cfg.shards.max(1).min(n.max(1));
    let block = n.div_ceil(s_count).max(1);
    let mut shards: Vec<Shard<A>> = (0..s_count)
        .map(|i| {
            let start = i * block;
            let end = ((i + 1) * block).min(n);
            Shard::new(algo, start as u32, end.saturating_sub(start), block)
        })
        .collect();

    // Seed deposits in seed order, exactly as the single-shard engine
    // would.
    for &(v, d) in seeds {
        shards[v.index() / block].deposit(algo, v.get(), d);
    }

    let round_log = {
        let mut slices: Vec<&mut [A::Value]> = Vec::with_capacity(s_count);
        let mut rest: &mut [A::Value] = values;
        for shard in &shards {
            let (head, tail) = rest.split_at_mut(shard.len);
            slices.push(head);
            rest = tail;
        }
        if s_count > 1 && cfg.fault.is_none() {
            drive_threaded(algo, graph, &mut shards, &mut slices)
        } else {
            drive_sequential(algo, graph, cfg.fault, &mut shards, &mut slices)
        }
    };

    TurboOutcome {
        values: values.iter().map(|&v| algo.value_to_f64(v)).collect(),
        events_processed: round_log.iter().sum(),
        events_generated: shards.iter().map(|s| s.generated).sum(),
        events_coalesced: shards.iter().map(|s| s.coalesced).sum(),
        stale_entries: 0,
        reschedules: 0,
        rounds: round_log.len() as u64,
        round_log,
    }
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

    #[test]
    fn sharded_runs_agree_with_golden_and_repeat_exactly() {
        let g = rmat(&RmatConfig::graph500(256, 2_048), 21);
        let pr = PageRankDelta::new(0.85, 1e-7);
        let golden = run_sequential(&pr, &g);
        for shards in [2, 3, 4, 7] {
            let cfg = TurboConfig {
                shards,
                ..TurboConfig::default()
            };
            let out = run_turbo(&pr, &g, &cfg);
            let diff = max_abs_diff(&out.values, &golden.values);
            assert!(
                diff < pr.comparison_tolerance(),
                "{shards} shards: |diff| {diff:e}"
            );
            out.check_lost_events().unwrap();
            let again = run_turbo(&pr, &g, &cfg);
            assert_eq!(
                out.render_log(),
                again.render_log(),
                "{shards} shards: log not reproducible"
            );
            assert!(
                same_bits(&out.values, &again.values),
                "{shards} shards: values not reproducible"
            );
        }
    }

    #[test]
    fn shards_beyond_vertex_count_are_clamped() {
        let g = erdos_renyi(3, 6, WeightMode::Unweighted, 1);
        let cfg = TurboConfig {
            shards: 64,
            ..TurboConfig::default()
        };
        let out = run_turbo(&ConnectedComponents::new(), &g, &cfg);
        let base = run_turbo(&ConnectedComponents::new(), &g, &TurboConfig::default());
        assert_eq!(out.values, base.values);
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
            for shards in [1, 2, 3, n + 7] {
                let mut values = vec![f64::INFINITY; n];
                let cfg = TurboConfig {
                    shards,
                    ..TurboConfig::default()
                };
                let out = run_turbo_seeded(&algo, &g, &mut values, &seeds, &cfg);
                assert_eq!(values, want, "n = {n}, {shards} shard(s)");
                out.check_lost_events().unwrap();
                assert_eq!(out.events_coalesced > 0, n > 0, "n = {n}");
            }
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
                    ..TurboConfig::default()
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
            ..TurboConfig::default()
        };
        let algo = Sssp::new(VertexId::new(0));
        let a = run_turbo(&algo, &g, &cfg);
        let b = run_turbo(&algo, &g, &cfg);
        assert!(a.check_lost_events().is_err());
        assert_eq!(a, b);
    }
}
