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

use gp_algorithms::engine::initial_state;
use gp_algorithms::DeltaAlgorithm;
use gp_graph::partition::Partition;
use gp_graph::{GraphView, VertexId};
use gp_sim::Cycle;

use crate::machine::Machine;
use crate::metrics::ExecutionReport;
use crate::{GraphPulse, Outcome, RunError};

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

/// Result of a parallel run: the merged [`Outcome`] fields plus the
/// barrier diagnostics. Every field is bit-identical for any worker count.
///
/// [`GraphPulse::run_parallel`] projects the values to `f64` (the default
/// `V`); [`GraphPulse::run_parallel_seeded`] keeps them in the algorithm's
/// typed representation so a stream of update batches can be re-fed without
/// lossy round-trips.
#[derive(Debug, Clone)]
pub struct ParallelOutcome<V = f64> {
    /// Final vertex values.
    pub values: Vec<V>,
    /// Merged measurement report; `cycles` is the slowest shard's clock.
    pub report: ExecutionReport,
    /// Number of epoch barriers executed.
    pub epochs: u64,
    /// Number of shards the graph was split into.
    pub shards: usize,
    /// Simulation ticks each shard actually executed (its share of the
    /// parallel work), so `sum / max-per-worker-chunk` is a
    /// host-independent measure of the speedup a sufficiently parallel
    /// machine realizes.
    pub shard_ticks: Vec<u64>,
}

/// Drops the barrier diagnostics: a parallel run is a run.
impl<V> From<ParallelOutcome<V>> for Outcome<V> {
    fn from(out: ParallelOutcome<V>) -> Self {
        Outcome {
            values: out.values,
            report: out.report,
        }
    }
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

    /// Runs `algo` on `graph` from a cold start — the [`initial_state`]
    /// values and seed set, values projected to `f64` — with the
    /// shard-parallel engine under a [`ParallelChaos`] plan (stall
    /// injection and/or epoch-budget watchdog).
    /// [`GraphPulse::run_parallel`] is this with the default (empty) plan.
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
        let (values, seeds) = initial_state(algo, graph);
        let out = self.run_parallel_inner(graph, algo, values, &seeds, chaos)?;
        Ok(ParallelOutcome {
            values: out.values.iter().map(|&v| algo.value_to_f64(v)).collect(),
            report: out.report,
            epochs: out.epochs,
            shards: out.shards,
            shard_ticks: out.shard_ticks,
        })
    }

    /// Runs `algo` from explicit state with the shard-parallel engine:
    /// `values` holds the per-vertex states to start from and `seeds` the
    /// events loaded before the first epoch. Every shard receives the full
    /// seed list and installs only its resident vertices' events, so the
    /// seeding — like the epoch exchange — is independent of the worker
    /// count and the determinism guarantee of [`crate::parallel`] carries
    /// over unchanged to incremental recomputation.
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
    ) -> Result<ParallelOutcome<A::Value>, RunError> {
        self.run_parallel_inner(graph, algo, values, seeds, ParallelChaos::default())
    }

    /// The epoch-barrier driver every parallel entry point runs.
    fn run_parallel_inner<A: DeltaAlgorithm, G: GraphView + Sync>(
        &self,
        graph: &G,
        algo: &A,
        values: Vec<A::Value>,
        seeds: &[(VertexId, A::Delta)],
        chaos: ParallelChaos,
    ) -> Result<ParallelOutcome<A::Value>, RunError> {
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
            // handles it.
            let out = self.run_seeded(graph, algo, values, seeds)?;
            return Ok(ParallelOutcome {
                values: out.values,
                report: out.report,
                epochs: 0,
                shards: 0,
                shard_ticks: Vec::new(),
            });
        }

        let mut machines: Vec<Machine<'_, A, G>> = (0..shard_count)
            .map(|s| {
                let mut m =
                    Machine::new_shard(cfg, graph, algo, values.clone(), partition.clone(), s);
                m.seed_events(seeds);
                m
            })
            .collect();

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

        Ok(self.merge_outcome(&partition, machines, epochs))
    }

    fn merge_outcome<A: DeltaAlgorithm, G: GraphView>(
        &self,
        partition: &Partition,
        machines: Vec<Machine<'_, A, G>>,
        epochs: u64,
    ) -> ParallelOutcome<A::Value> {
        let shards = machines.len();
        let mut values: Vec<A::Value> = Vec::new();
        let mut report: Option<ExecutionReport> = None;
        let mut shard_ticks = Vec::with_capacity(shards);
        for (machine, slice) in machines.into_iter().zip(partition.slices()) {
            shard_ticks.push(machine.ticks());
            let out = machine.finish();
            // Shards are contiguous and visited in order, so the slices
            // they own concatenate to the full typed vector.
            debug_assert_eq!(slice.start.index(), values.len());
            values.extend_from_slice(&out.values[slice.start.index()..slice.end.index()]);
            match &mut report {
                None => report = Some(out.report),
                Some(merged) => merged.merge(out.report, self.config()),
            }
        }
        ParallelOutcome {
            values,
            report: report.expect("at least one shard"),
            epochs,
            shards,
            shard_ticks,
        }
    }
}
