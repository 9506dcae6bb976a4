//! Shard-parallel execution engine with deterministic epoch-barrier
//! event exchange.
//!
//! The graph is partitioned into contiguous *shards* with
//! [`Partition::contiguous`]; each shard owns one permanently resident
//! slice together with its own event queue, processors, generation units,
//! and DRAM model — exactly the sequential machine, minus slice
//! swapping. Shards advance independently for
//! [`ParallelConfig::epoch_cycles`](crate::ParallelConfig) simulated
//! cycles, then meet at a barrier where cross-shard events are exchanged
//! through per-shard inboxes.
//!
//! # Determinism
//!
//! Two properties make the engine bit-deterministic for **any** worker
//! count:
//!
//! 1. The shard structure is derived only from the configuration and the
//!    graph (queue capacity, or the explicit
//!    [`ParallelConfig::shards`](crate::ParallelConfig) override) — never
//!    from `workers`. A worker is just an OS thread stepping a disjoint
//!    subset of shards between barriers; each shard's simulation is a
//!    pure function of its inputs.
//! 2. Inbox merge order is canonical: every outgoing event is tagged with
//!    its emission `(cycle, seq)` by the sender, and each inbox is sorted
//!    by `(cycle, source shard, seq)` before delivery.
//!
//! Consequently final vertex values, total cycles, and every statistic
//! are identical for 1, 2, 4, ... workers; threads only change wall-clock
//! time.

use std::sync::Mutex;

use gp_algorithms::DeltaAlgorithm;
use gp_graph::partition::Partition;
use gp_graph::{GraphView, VertexId};
use gp_sim::stats::StatsRegistry;
use gp_sim::Cycle;

use crate::energy::{ActivityCounters, EnergyModel, EnergyReport};
use crate::machine::Machine;
use crate::metrics::{ExecutionReport, RoundMetrics, StageAverages};
use crate::metrics::{GEN_STATES, PROC_STATES};
use crate::{GraphPulse, RunError};
use gp_sim::stats::StateTimeline;

/// Deterministic disturbance-and-watchdog plan for the shard-parallel
/// engine, used by the chaos plane (`gp-chaos`).
///
/// The stall models a shard whose egress link is down: at each barrier the
/// victim's outgoing events are diverted into a carry buffer instead of
/// the inboxes, for `epochs` consecutive barriers, then flushed. Held
/// events keep their original `(cycle, source shard, seq)` tags and the
/// canonical inbox sort runs on delivery, so a run that survives the
/// stall stays bit-deterministic for any worker count. The termination
/// check refuses to declare convergence while the carry buffer is
/// non-empty — a stall can therefore never produce a silently wrong fixed
/// point; it either delays convergence or trips the epoch-budget
/// watchdog ([`RunError::EpochBudget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelChaos {
    /// Stall injection: `(victim shard, barriers held)`. The victim index
    /// is taken modulo the shard count. `None` injects nothing.
    pub stall: Option<(usize, u64)>,
    /// Convergence watchdog: maximum number of epoch barriers before the
    /// run is aborted with [`RunError::EpochBudget`]. `None` disables it.
    pub epoch_budget: Option<u64>,
}

/// Result of a parallel run: the merged [`Outcome`](crate::Outcome) fields
/// plus the barrier-merged counter registry.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Final vertex values projected to `f64` (bit-identical across worker
    /// counts).
    pub values: Vec<f64>,
    /// Merged measurement report; `cycles` is the slowest shard's clock.
    pub report: ExecutionReport,
    /// Snapshot of the epoch-merged [`StatsRegistry`] in name order.
    pub stats: Vec<(&'static str, u64)>,
    /// Number of epoch barriers executed.
    pub epochs: u64,
    /// Number of shards the graph was split into.
    pub shards: usize,
    /// Simulation ticks each shard actually executed (its share of the
    /// parallel work). Like every other field this is identical for any
    /// worker count, so `sum / max-per-worker-chunk` is a host-independent
    /// measure of the speedup a sufficiently parallel machine realizes.
    pub shard_ticks: Vec<u64>,
}

/// Result of a warm-start parallel run
/// ([`GraphPulse::run_parallel_seeded`]): the [`ParallelOutcome`] fields
/// with vertex values kept in the algorithm's typed representation so a
/// stream of update batches can be re-fed without lossy `f64` round-trips.
/// Carries the same bit-determinism guarantee across worker counts.
#[derive(Debug, Clone)]
pub struct ParallelSeededOutcome<V> {
    /// Final typed vertex values (bit-identical across worker counts).
    pub values: Vec<V>,
    /// Merged measurement report; `cycles` is the slowest shard's clock.
    pub report: ExecutionReport,
    /// Snapshot of the epoch-merged [`StatsRegistry`] in name order.
    pub stats: Vec<(&'static str, u64)>,
    /// Number of epoch barriers executed.
    pub epochs: u64,
    /// Number of shards the graph was split into.
    pub shards: usize,
    /// Simulation ticks each shard executed.
    pub shard_ticks: Vec<u64>,
}

impl GraphPulse {
    /// Runs `algo` on `graph` with the shard-parallel engine.
    ///
    /// See the module docs of [`crate::parallel`] for the execution model
    /// and the determinism guarantee. `config.parallel.workers` only sets
    /// the thread count; results are bit-identical for any value.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidConfig`] if the configuration is inconsistent or
    /// a forced shard count would overflow the event queue;
    /// [`RunError::CycleLimit`] if any shard exceeds `config.max_cycles`.
    pub fn run_parallel<A: DeltaAlgorithm, G: GraphView + Sync>(
        &self,
        graph: &G,
        algo: &A,
    ) -> Result<ParallelOutcome, RunError> {
        self.run_parallel_chaos(graph, algo, ParallelChaos::default())
    }

    /// Runs `algo` on `graph` with the shard-parallel engine under a
    /// [`ParallelChaos`] plan (stall injection and/or epoch-budget
    /// watchdog). [`GraphPulse::run_parallel`] is this with the default
    /// (empty) plan.
    ///
    /// # Errors
    ///
    /// Same as [`GraphPulse::run_parallel`], plus
    /// [`RunError::EpochBudget`] when the watchdog fires.
    pub fn run_parallel_chaos<A: DeltaAlgorithm, G: GraphView + Sync>(
        &self,
        graph: &G,
        algo: &A,
        chaos: ParallelChaos,
    ) -> Result<ParallelOutcome, RunError> {
        let out = self.run_parallel_inner(graph, algo, None, chaos)?;
        Ok(ParallelOutcome {
            values: out.values.iter().map(|&v| algo.value_to_f64(v)).collect(),
            report: out.report,
            stats: out.stats,
            epochs: out.epochs,
            shards: out.shards,
            shard_ticks: out.shard_ticks,
        })
    }

    /// Runs `algo` from explicit warm-start state with the shard-parallel
    /// engine: `values` holds the per-vertex states to resume from and
    /// `seeds` the events injected instead of the cold-start initial-delta
    /// sweep. Every shard receives the full seed list and installs only
    /// its resident vertices' events, so the seeding — like the epoch
    /// exchange — is independent of the worker count and the determinism
    /// guarantee of [`crate::parallel`] carries over unchanged to
    /// incremental recomputation.
    ///
    /// # Errors
    ///
    /// Same as [`GraphPulse::run_parallel`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != graph.num_vertices()` or a seed vertex
    /// is out of range.
    pub fn run_parallel_seeded<A: DeltaAlgorithm, G: GraphView + Sync>(
        &self,
        graph: &G,
        algo: &A,
        values: Vec<A::Value>,
        seeds: &[(VertexId, A::Delta)],
    ) -> Result<ParallelSeededOutcome<A::Value>, RunError> {
        self.run_parallel_inner(graph, algo, Some((values, seeds)), ParallelChaos::default())
    }

    /// Shared driver behind the cold-start and warm-start parallel paths;
    /// `seed` selects between the per-shard initial-delta sweep (`None`)
    /// and explicit warm-start state.
    #[allow(clippy::type_complexity)]
    fn run_parallel_inner<A: DeltaAlgorithm, G: GraphView + Sync>(
        &self,
        graph: &G,
        algo: &A,
        seed: Option<(Vec<A::Value>, &[(VertexId, A::Delta)])>,
        chaos: ParallelChaos,
    ) -> Result<ParallelSeededOutcome<A::Value>, RunError> {
        let cfg = self.config();
        cfg.validate().map_err(RunError::InvalidConfig)?;
        let pc = cfg.parallel;

        let queue_capacity = cfg.queue.capacity().max(1);
        let per_slice = if pc.shards > 0 {
            let forced = graph.num_vertices().div_ceil(pc.shards).max(1);
            if forced > queue_capacity {
                return Err(RunError::InvalidConfig(format!(
                    "{} shards put {forced} vertices in a slice, above the \
                     queue capacity of {queue_capacity}",
                    pc.shards
                )));
            }
            forced
        } else {
            queue_capacity
        };
        let partition = Partition::contiguous(graph, per_slice);
        let shard_count = partition.len();
        if shard_count == 0 {
            // Empty graph (zero vertices): the sequential path already
            // handles it, and there are no typed values to carry.
            let out = self.run(graph, algo)?;
            debug_assert!(out.values.is_empty());
            return Ok(ParallelSeededOutcome {
                values: Vec::new(),
                report: out.report,
                stats: Vec::new(),
                epochs: 0,
                shards: 0,
                shard_ticks: Vec::new(),
            });
        }

        let mut machines: Vec<Machine<'_, A, G>> = (0..shard_count)
            .map(|s| Machine::new_shard(cfg, graph, algo, partition.clone(), s))
            .collect();
        match &seed {
            None => {
                for m in &mut machines {
                    m.seed_shard_events();
                }
            }
            Some((values, seeds)) => {
                for m in &mut machines {
                    m.set_values(values.clone());
                    m.seed_events(seeds);
                }
            }
        }

        let registry = StatsRegistry::new();
        let workers = pc.workers.clamp(1, shard_count);
        let chunk = shard_count.div_ceil(workers);
        let mut epochs = 0u64;
        let mut barrier = 0u64;

        // Chaos plan state: the stalled shard's diverted events (with
        // their original canonical tags) and the barriers left to hold.
        let stall_shard = chaos.stall.map(|(s, _)| s % shard_count);
        let mut stall_left = chaos.stall.map_or(0, |(_, epochs)| epochs);
        let mut carry: Vec<(usize, u64, usize, u64, _)> = Vec::new();

        loop {
            barrier = barrier.saturating_add(pc.epoch_cycles);
            epochs += 1;
            if let Some(budget) = chaos.epoch_budget {
                if epochs > budget {
                    return Err(RunError::EpochBudget(budget));
                }
            }
            let epoch_end = Cycle::new(barrier);

            // Run every shard up to the barrier; workers step disjoint
            // chunks, so no shard state is shared between threads.
            let first_err: Mutex<Option<RunError>> = Mutex::new(None);
            std::thread::scope(|scope| {
                for chunk_machines in machines.chunks_mut(chunk) {
                    let first_err = &first_err;
                    scope.spawn(move || {
                        for m in chunk_machines {
                            if let Err(e) = m.run_epoch(epoch_end) {
                                let mut slot = first_err.lock().expect("error slot poisoned");
                                slot.get_or_insert(e);
                                return;
                            }
                        }
                    });
                }
            });
            if let Some(e) = first_err.into_inner().expect("error slot poisoned") {
                return Err(e);
            }

            // Sharded counters merge into the thread-safe registry at the
            // barrier (order-independent: counter addition commutes).
            for m in &mut machines {
                registry.absorb(m.drain_epoch_stats());
            }

            // Exchange: gather every shard's outboxes into per-destination
            // inboxes tagged (cycle, source shard, seq).
            let mut inboxes: Vec<Vec<(u64, usize, u64, _)>> =
                (0..shard_count).map(|_| Vec::new()).collect();
            for (src, m) in machines.iter_mut().enumerate() {
                for (dst, out) in m.take_outboxes().into_iter().enumerate() {
                    for oe in out {
                        if stall_left > 0 && Some(src) == stall_shard {
                            carry.push((dst, oe.cycle, src, oe.seq, oe.event));
                        } else {
                            inboxes[dst].push((oe.cycle, src, oe.seq, oe.event));
                        }
                    }
                }
            }
            if stall_left > 0 {
                stall_left -= 1;
                if stall_left == 0 {
                    // Stall window over: the victim's egress floods out.
                    // Original tags survive, so the canonical sort below
                    // restores a worker-count-independent delivery order.
                    for (dst, cycle, src, seq, ev) in carry.drain(..) {
                        inboxes[dst].push((cycle, src, seq, ev));
                    }
                }
            }
            let exchanged: usize = inboxes.iter().map(Vec::len).sum();
            if exchanged == 0 && carry.is_empty() && machines.iter().all(Machine::parked) {
                break;
            }

            // Deliver in the canonical order so insertion (and therefore
            // coalescing) is identical for every worker count. Destinations
            // are independent, so workers sort + install disjoint chunks.
            std::thread::scope(|scope| {
                for (chunk_machines, chunk_inboxes) in
                    machines.chunks_mut(chunk).zip(inboxes.chunks_mut(chunk))
                {
                    scope.spawn(move || {
                        for (m, inbox) in chunk_machines.iter_mut().zip(chunk_inboxes) {
                            if inbox.is_empty() {
                                continue;
                            }
                            inbox.sort_by_key(|&(cycle, src, seq, _)| (cycle, src, seq));
                            m.deliver(epoch_end, inbox.drain(..).map(|(_, _, _, ev)| ev));
                        }
                    });
                }
            });
        }
        for m in &mut machines {
            registry.absorb(m.drain_epoch_stats());
        }

        Ok(self.merge_outcome(graph, machines, registry, epochs, shard_count))
    }

    fn merge_outcome<A: DeltaAlgorithm, G: GraphView>(
        &self,
        graph: &G,
        machines: Vec<Machine<'_, A, G>>,
        registry: StatsRegistry,
        epochs: u64,
        shards: usize,
    ) -> ParallelSeededOutcome<A::Value> {
        let cfg = self.config();
        let mut values: Vec<A::Value> = Vec::with_capacity(graph.num_vertices());
        let mut cycles = 0u64;
        let mut rounds = 0u64;
        let mut activations = 0u64;
        let mut processed = 0u64;
        let mut generated = 0u64;
        let mut coalesced = 0u64;
        let mut exchanged = 0u64;
        let mut rounds_log: Vec<RoundMetrics> = Vec::new();
        let mut stages = StageAverages::default();
        let mut proc_timeline = StateTimeline::new(&PROC_STATES);
        let mut gen_timeline = StateTimeline::new(&GEN_STATES);
        let mut memory = gp_mem::MemStats::default();
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut activity = ActivityCounters::default();
        let mut shard_ticks = Vec::with_capacity(shards);

        for machine in machines {
            let part = machine.into_shard_partial();
            shard_ticks.push(part.ticks);
            // Shards are contiguous and visited in order, so their value
            // slices concatenate to the full typed vector.
            debug_assert_eq!(part.start, values.len());
            values.extend(part.values);
            cycles = cycles.max(part.cycles);
            rounds = rounds.max(part.rounds);
            activations += part.activations;
            processed += part.events_processed;
            generated += part.events_generated;
            coalesced += part.events_coalesced;
            exchanged += part.events_exchanged;
            // Align per-shard round logs by round index so aggregate
            // invariants (e.g. lookahead totals) keep holding.
            if rounds_log.len() < part.rounds_log.len() {
                rounds_log.resize_with(part.rounds_log.len(), RoundMetrics::default);
            }
            for (i, r) in part.rounds_log.into_iter().enumerate() {
                let dst = &mut rounds_log[i];
                dst.round = i as u64;
                dst.produced += r.produced;
                dst.coalesced_away += r.coalesced_away;
                dst.drained += r.drained;
                dst.remaining += r.remaining;
                dst.lookahead.zero += r.lookahead.zero;
                dst.lookahead.lt100 += r.lookahead.lt100;
                dst.lookahead.lt200 += r.lookahead.lt200;
                dst.lookahead.lt300 += r.lookahead.lt300;
                dst.lookahead.lt400 += r.lookahead.lt400;
                dst.lookahead.ge400 += r.lookahead.ge400;
            }
            stages.merge(&part.stages);
            proc_timeline.merge(&part.proc_timeline);
            gen_timeline.merge(&part.gen_timeline);
            memory.merge(&part.memory);
            cache_hits += part.cache_hits;
            cache_misses += part.cache_misses;
            activity.queue_reads += part.activity.queue_reads;
            activity.queue_writes += part.activity.queue_writes;
            activity.coalesce_ops += part.activity.coalesce_ops;
            activity.scratchpad_accesses += part.activity.scratchpad_accesses;
            activity.network_flits += part.activity.network_flits;
            activity.proc_ops += part.activity.proc_ops;
        }

        let seconds = cfg.cycles_to_seconds(cycles.max(1));
        let energy = EnergyReport::from_activity(
            &EnergyModel::paper(),
            &activity,
            seconds,
            cfg.queue.bins,
            cfg.processors,
        );
        let report = ExecutionReport {
            cycles,
            seconds,
            rounds,
            slices: shards as u64,
            slice_activations: activations,
            events_processed: processed,
            events_generated: generated,
            events_coalesced: coalesced,
            events_spilled: exchanged,
            rounds_log,
            stages,
            proc_timeline,
            gen_timeline,
            memory,
            edge_cache_hits: cache_hits,
            edge_cache_misses: cache_misses,
            energy,
        };
        ParallelSeededOutcome {
            values,
            report,
            stats: registry.snapshot(),
            epochs,
            shards,
            shard_ticks,
        }
    }
}
