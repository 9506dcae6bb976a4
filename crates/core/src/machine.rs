//! The assembled accelerator: scheduler, datapath wiring, slicing, and the
//! public [`GraphPulse`] entry point.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;

use gp_algorithms::engine::{apply_event, initial_state};
use gp_algorithms::DeltaAlgorithm;
use gp_graph::partition::Partition;
use gp_graph::{GraphView, VertexId};
use gp_mem::{line_base, MemRequest, MemorySystem, ReqId, TrafficClass, LINE_BYTES};
use gp_sim::stats::StateTimeline;
use gp_sim::Cycle;

use crate::energy::{ActivityCounters, EnergyReport};
use crate::generation::{
    ActiveGen, GenTask, GenUnit, GT_EDGE_READ, GT_GENERATE, GT_IDLE, GT_STALL,
};
use crate::metrics::{ExecutionReport, RoundMetrics, StageAverages, GEN_STATES, PROC_STATES};
use crate::network::{Crossbar, Flit, Route};
use crate::processor::{
    vertex_line, ApplyOp, ProcToken, Processor, ST_IDLE, ST_PROCESS, ST_STALL, ST_VERTEX_READ,
};
use crate::queue::{row_base_index, slot_of, Bin, InsertOutcome, SlotAddr};
use crate::wake::{Parked, WakeSet};
use crate::{AcceleratorConfig, Event, SchedulingPolicy};

/// Result of an accelerator run: final vertex values plus the full
/// measurement report.
///
/// [`GraphPulse::run`] projects the values to `f64` (the default `V`);
/// [`GraphPulse::run_seeded`] keeps them in the algorithm's typed
/// representation so they can seed the next run without a lossy round-trip.
#[derive(Debug, Clone)]
pub struct Outcome<V = f64> {
    /// Final vertex values.
    pub values: Vec<V>,
    /// Everything measured during the run.
    pub report: ExecutionReport,
}

/// Errors from [`GraphPulse::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configuration failed validation; carries the reason.
    InvalidConfig(String),
    /// The simulation exceeded the configured cycle safety cap.
    CycleLimit(u64),
    /// The convergence watchdog fired: the parallel engine crossed its
    /// epoch-barrier budget without reaching a fixed point (a stalled or
    /// skewed shard is the canonical cause). Carries the budget.
    EpochBudget(u64),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::InvalidConfig(why) => write!(f, "invalid accelerator configuration: {why}"),
            RunError::CycleLimit(cap) => write!(f, "simulation exceeded {cap} cycles"),
            RunError::EpochBudget(cap) => write!(
                f,
                "convergence watchdog: no fixed point within {cap} epoch barriers \
                 (stalled or skewed shard suspected)"
            ),
        }
    }
}

impl Error for RunError {}

/// The GraphPulse accelerator.
///
/// Owns a configuration; [`GraphPulse::run`] simulates the machine
/// cycle-by-cycle on a graph + algorithm pair and returns the final vertex
/// values together with an [`ExecutionReport`]. See the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct GraphPulse {
    config: AcceleratorConfig,
}

impl GraphPulse {
    /// Creates an accelerator with `config`.
    pub fn new(config: AcceleratorConfig) -> Self {
        GraphPulse { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Runs `algo` on `graph` to completion from a cold start: the
    /// [`initial_state`] values and seed set through
    /// [`GraphPulse::run_seeded`], with the values projected to `f64`.
    ///
    /// # Errors
    ///
    /// Same as [`GraphPulse::run_seeded`].
    pub fn run<A: DeltaAlgorithm, G: GraphView>(
        &self,
        graph: &G,
        algo: &A,
    ) -> Result<Outcome, RunError> {
        let (values, seeds) = initial_state(algo, graph);
        let out = self.run_seeded(graph, algo, values, &seeds)?;
        Ok(Outcome {
            values: out.values.iter().map(|&v| algo.value_to_f64(v)).collect(),
            report: out.report,
        })
    }

    /// Runs `algo` from explicit state: `values` holds the per-vertex
    /// states to start from and `seeds` the events the host loads into the
    /// queue before the first round. A cold start passes
    /// [`initial_state`]; incremental recomputation over streaming graph
    /// updates passes converged values and a computed seed plan.
    ///
    /// Graphs with more vertices than the event queue's capacity are
    /// automatically partitioned into slices (§IV-F).
    ///
    /// Returns typed values (not the `f64` projection) so a stream of
    /// update batches can be re-fed without lossy round-trips.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidConfig`] if the configuration is inconsistent,
    /// [`RunError::CycleLimit`] if the simulation exceeds
    /// `config.max_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != graph.num_vertices()` or a seed vertex
    /// is out of range.
    pub fn run_seeded<A: DeltaAlgorithm, G: GraphView>(
        &self,
        graph: &G,
        algo: &A,
        values: Vec<A::Value>,
        seeds: &[(VertexId, A::Delta)],
    ) -> Result<Outcome<A::Value>, RunError> {
        self.config.validate().map_err(RunError::InvalidConfig)?;
        let mut machine = Machine::new(&self.config, graph, algo, values);
        machine.seed_events(seeds);
        machine.run_until(Cycle::NEVER)?;
        Ok(machine.finish())
    }
}

/// Where a memory completion must be routed.
enum MemTarget<D> {
    VertexLine { proc: usize, line: u64 },
    EdgeLine { unit: usize, line: u64 },
    VertexWriteAck,
    SpillWrite,
    FillChunk { events: Vec<Event<D>> },
}

/// The memory requests in flight and where each one's completion goes, by
/// request id. [`MemorySystem::request`] numbers requests in sequence and
/// the machine records every one it makes, so the ids outstanding lie in
/// one window `base..base + slots.len()` — with holes, since FR-FCFS can
/// complete a newer request while an older one waits.
struct PendingMem<T> {
    /// Id of `slots[0]`.
    base: u64,
    /// `None` once completed; the front is `Some` unless `slots` is empty.
    slots: VecDeque<Option<T>>,
}

impl<T> Default for PendingMem<T> {
    fn default() -> Self {
        PendingMem {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> PendingMem<T> {
    /// Records the target of request `id`, the next one issued.
    fn insert(&mut self, id: ReqId, target: T) {
        assert_eq!(
            id.get(),
            self.base + self.slots.len() as u64,
            "memory request ids are issued in sequence"
        );
        self.slots.push_back(Some(target));
    }

    /// Takes the target of request `id`, if it is outstanding.
    fn remove(&mut self, id: ReqId) -> Option<T> {
        let at = usize::try_from(id.get().checked_sub(self.base)?).ok()?;
        let target = self.slots.get_mut(at)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        target
    }

    /// Whether no request is outstanding.
    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A cross-shard event awaiting exchange at the next epoch barrier, tagged
/// for the deterministic `(cycle, source shard, sequence)` merge order.
pub(crate) struct OutEvent<D> {
    /// Cycle at which the generating shard emitted the event.
    pub(crate) cycle: u64,
    /// Emission sequence number within the generating shard (monotone).
    pub(crate) seq: u64,
    /// The event itself.
    pub(crate) event: Event<D>,
}

enum Phase<D> {
    /// Sweeping bins and dispatching rows to processors.
    Drain,
    /// End-of-round barrier: waiting for every unit to go idle.
    Quiesce,
    /// Streaming a swapped-in slice's events from off-chip (§IV-F).
    Fill {
        queue: VecDeque<Event<D>>,
        outstanding: usize,
    },
    Done,
}

pub(crate) struct Machine<'a, A: DeltaAlgorithm, G: GraphView> {
    cfg: &'a AcceleratorConfig,
    algo: &'a A,
    graph: &'a G,
    edge_bytes: u32,
    vertex_base: u64,
    edge_base: u64,
    spill_base: u64,
    spill_bump: u64,

    partition: Partition,
    active_slice: usize,
    values: Vec<A::Value>,

    mem: MemorySystem,
    pending_mem: PendingMem<MemTarget<A::Delta>>,
    bins: Vec<Bin<A::Delta>>,
    xbar: Crossbar<A::Delta>,
    procs: Vec<Processor<A::Delta>>,
    units: Vec<GenUnit<A::Delta>>,
    spill: Vec<VecDeque<Event<A::Delta>>>,
    spill_pending_bytes: u64,

    /// Shard mode: the active slice is permanently resident; events for
    /// other slices go to `outbox` for the epoch-barrier exchange instead
    /// of the off-chip spill path.
    shard_mode: bool,
    outbox: Vec<Vec<OutEvent<A::Delta>>>,
    /// Per-destination map from target vertex to its outbox entry, so
    /// cross-shard events coalesce at the sender exactly as the queue
    /// would coalesce them at the receiver (the merge is commutative, so
    /// the receiver's state is unchanged while the exchange volume drops
    /// from O(events) to O(touched vertices) per epoch). Each merge counts
    /// as coalesced, as a bin's does; it is not a queue write, so
    /// `activity.coalesce_ops` leaves it out.
    outbox_index: Vec<HashMap<u32, usize>>,
    out_seq: u64,

    // ---- who needs a visit (see `wake`) ----
    /// Processors to visit this cycle. The rest are parked: quiescent, or
    /// waiting for a line, for room in their generation buffer or for room
    /// in a channel queue.
    procs_awake: WakeSet,
    /// Streams to visit this cycle, by `unit * gen_streams + stream`. The
    /// rest are parked: without a task, or waiting for an edge line.
    streams_awake: WakeSet,
    /// Bins whose input FIFO holds something.
    bins_active: WakeSet,
    /// Units parked on a refusal by `mem.can_accept`, per channel (by
    /// `channel % 64`, as `MemorySystem::tick` reports dequeues).
    refused: Vec<Refused>,
    /// Processors / generation units that are not quiescent.
    procs_busy: WakeSet,
    units_busy: WakeSet,
    /// First cycle in which the scheduler finds every coalescer empty.
    bins_settle_at: Cycle,
    /// The drain found a row but no processor with room for it: only a
    /// processor's progress can unblock it.
    drain_starved: bool,
    /// Cycles the clock moved while the shard sat parked between epochs.
    parked_cycles: u64,

    phase: Phase<A::Delta>,
    /// Bin visit order for the current round (identity under round-robin).
    bin_order: Vec<usize>,
    current_bin: usize,
    dispatch_rr: usize,
    round: u64,
    slice_activations: u64,

    now: Cycle,
    current_round: RoundMetrics,
    rounds_log: Vec<RoundMetrics>,
    stages: StageAverages,
    activity: ActivityCounters,
    events_processed: u64,
    events_generated: u64,
    events_coalesced: u64,
    events_spilled: u64,
}

/// The units one memory channel turned away, woken when it dequeues.
struct Refused {
    procs: WakeSet,
    streams: WakeSet,
}

impl<'a, A: DeltaAlgorithm, G: GraphView> Machine<'a, A, G> {
    fn new(cfg: &'a AcceleratorConfig, graph: &'a G, algo: &'a A, values: Vec<A::Value>) -> Self {
        let partition = Partition::contiguous(graph, cfg.queue.capacity().max(1));
        Self::with_partition(cfg, graph, algo, values, partition, 0, false)
    }

    /// Builds the shard-parallel variant: slice `shard` of `partition` is
    /// permanently resident and cross-slice events are exchanged at epoch
    /// barriers rather than spilled.
    pub(crate) fn new_shard(
        cfg: &'a AcceleratorConfig,
        graph: &'a G,
        algo: &'a A,
        values: Vec<A::Value>,
        partition: Partition,
        shard: usize,
    ) -> Self {
        Self::with_partition(cfg, graph, algo, values, partition, shard, true)
    }

    fn with_partition(
        cfg: &'a AcceleratorConfig,
        graph: &'a G,
        algo: &'a A,
        values: Vec<A::Value>,
        partition: Partition,
        active_slice: usize,
        shard_mode: bool,
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(
            values.len(),
            n,
            "warm-start state length must match the vertex count"
        );
        let edge_bytes = if graph.is_weighted() {
            cfg.edge_bytes * 2
        } else {
            cfg.edge_bytes
        };
        let vertex_base = 0u64;
        let edge_base = align_up(vertex_base + n as u64 * u64::from(cfg.vertex_bytes));
        let spill_base = align_up(edge_base + graph.edge_span() as u64 * u64::from(edge_bytes));

        // Storage for the rows a resident slice can reach — the geometry
        // (capacity, slot mapping, energy) stays the configured one.
        let longest = partition.slices().iter().map(|s| s.len()).max();
        let rows = longest
            .unwrap_or(0)
            .div_ceil(cfg.queue.bins * cfg.queue.cols)
            .min(cfg.queue.rows);
        let bins = (0..cfg.queue.bins)
            .map(|_| Bin::new(&cfg.queue, rows, cfg.bin_input_depth, cfg.coalescer_depth))
            .collect();
        let procs = (0..cfg.processors)
            .map(|_| Processor::new(cfg.input_buffer, cfg.scratchpad_lines, cfg.process_latency))
            .collect();
        let units = (0..cfg.processors)
            .map(|p| {
                GenUnit::new(
                    cfg.gen_streams,
                    cfg.gen_buffer,
                    cfg.edge_cache,
                    p * cfg.gen_streams,
                    cfg.crossbar_ports,
                )
            })
            .collect();
        let spill = vec![VecDeque::new(); partition.len().max(1)];
        let outbox: Vec<Vec<OutEvent<A::Delta>>> = if shard_mode {
            (0..partition.len()).map(|_| Vec::new()).collect()
        } else {
            Vec::new()
        };
        let outbox_index = (0..outbox.len()).map(|_| HashMap::new()).collect();
        let streams = cfg.total_streams();
        let refused = (0..cfg.dram.channels.min(64))
            .map(|_| Refused {
                procs: WakeSet::new(cfg.processors),
                streams: WakeSet::new(streams),
            })
            .collect();

        Machine {
            cfg,
            algo,
            graph,
            edge_bytes,
            vertex_base,
            edge_base,
            spill_base,
            spill_bump: 0,
            partition,
            active_slice,
            values,
            mem: MemorySystem::new(cfg.dram),
            pending_mem: PendingMem::default(),
            bins,
            xbar: Crossbar::new(cfg.crossbar_ports, 4, cfg.queue.bins),
            procs,
            units,
            spill,
            spill_pending_bytes: 0,
            shard_mode,
            outbox,
            outbox_index,
            out_seq: 0,
            procs_awake: WakeSet::new(cfg.processors),
            streams_awake: WakeSet::new(streams),
            bins_active: WakeSet::new(cfg.queue.bins),
            refused,
            procs_busy: WakeSet::new(cfg.processors),
            units_busy: WakeSet::new(cfg.processors),
            bins_settle_at: Cycle::ZERO,
            drain_starved: false,
            parked_cycles: 0,
            phase: Phase::Drain,
            bin_order: (0..cfg.queue.bins).collect(),
            current_bin: 0,
            dispatch_rr: 0,
            round: 0,
            slice_activations: 1,
            now: Cycle::ZERO,
            current_round: RoundMetrics::default(),
            rounds_log: Vec::new(),
            stages: StageAverages::default(),
            activity: ActivityCounters::default(),
            events_processed: 0,
            events_generated: 0,
            events_coalesced: 0,
            events_spilled: 0,
        }
    }

    // ---- address helpers ----

    fn edge_addr(&self, v: VertexId, edge_index: u32) -> u64 {
        self.edge_base
            + (self.graph.out_edge_base(v) as u64 + u64::from(edge_index))
                * u64::from(self.edge_bytes)
    }

    fn next_spill_addr(&mut self) -> u64 {
        let addr = self.spill_base + self.spill_bump * LINE_BYTES;
        self.spill_bump += 1;
        addr
    }

    fn route_of(&self, ev: &Event<A::Delta>) -> Route {
        let slice = self.partition.slice_of(ev.target);
        if slice == self.active_slice {
            let local = self.partition.slices()[slice].local_index(ev.target);
            let SlotAddr { bin, row, col } = slot_of(local, &self.cfg.queue);
            Route::Bin { bin, row, col }
        } else {
            Route::Spill { slice }
        }
    }

    // ---- setup ----

    /// Loads the run's initial events. In shard mode each shard receives
    /// the full seed list and installs only the events targeting its
    /// resident slice, so the union across shards covers the seed set
    /// exactly once; in sliced single-machine mode, events for swapped-out
    /// slices go to their spill queues like any cross-slice event.
    pub(crate) fn seed_events(&mut self, seeds: &[(VertexId, A::Delta)]) {
        if self.partition.is_empty() {
            self.phase = Phase::Done;
            return;
        }
        for &(v, delta) in seeds {
            let slice = self.partition.slice_of(v);
            if slice == self.active_slice {
                self.events_generated += 1;
                self.install_resident(Event::new(v, delta, 0));
            } else if !self.shard_mode {
                self.events_generated += 1;
                self.spill[slice].push_back(Event::new(v, delta, 0));
            }
        }
        if self.total_occupancy() == 0 {
            // Active slice got nothing: behave like an empty first round.
            self.phase = Phase::Quiesce;
        }
    }

    /// Functionally installs an event into the resident queue (host load or
    /// swap-in path; uses the bins' parallel insertion units).
    fn install_resident(&mut self, ev: Event<A::Delta>) {
        let slice = &self.partition.slices()[self.active_slice];
        let local = slice.local_index(ev.target);
        let addr = slot_of(local, &self.cfg.queue);
        self.activity.queue_writes += 1;
        match self.bins[addr.bin].install(self.algo, addr, ev) {
            InsertOutcome::Coalesced => {
                self.events_coalesced += 1;
                self.current_round.coalesced_away += 1;
                self.activity.coalesce_ops += 1;
            }
            InsertOutcome::Inserted => {}
        }
    }

    fn total_occupancy(&self) -> usize {
        self.bins.iter().map(Bin::occupancy).sum()
    }

    /// Recomputes the bin visit order for the next round per the
    /// configured scheduling policy (§IV-C).
    fn refresh_bin_order(&mut self) {
        if self.cfg.scheduling == SchedulingPolicy::OccupancyFirst {
            let occupancy: Vec<usize> = self.bins.iter().map(Bin::occupancy).collect();
            // Stable sort from the identity order keeps ties deterministic.
            self.bin_order = (0..self.bins.len()).collect();
            self.bin_order
                .sort_by_key(|&b| std::cmp::Reverse(occupancy[b]));
        }
    }

    // ---- main loop ----

    /// Ticks until the run is done or the clock reaches `end`.
    fn run_until(&mut self, end: Cycle) -> Result<(), RunError> {
        let limit = end.min(Cycle::new(self.cfg.max_cycles));
        while !matches!(self.phase, Phase::Done) && self.now < end {
            if self.now.get() >= self.cfg.max_cycles {
                return Err(RunError::CycleLimit(self.cfg.max_cycles));
            }
            self.tick();
            self.skip_idle_cycles(limit);
        }
        Ok(())
    }

    /// With every unit parked, moves the clock to the first cycle in which
    /// anything can happen — a memory event, or the scheduler acting on its
    /// own — but never past `limit`. The cycles in between would have been
    /// ticks that change nothing but the timelines, which parked units
    /// settle in bulk.
    fn skip_idle_cycles(&mut self, limit: Cycle) {
        let all_parked = self.procs_awake.is_empty()
            && self.streams_awake.is_empty()
            && self.bins_active.is_empty()
            && self.xbar.is_empty()
            && self.spill_pending_bytes < LINE_BYTES; // else a spill write is due
        if !all_parked || matches!(self.phase, Phase::Done) {
            return;
        }
        let next = self.mem.next_event().min(self.scheduler_next_move());
        if next > self.now {
            self.now = next.min(limit);
        }
    }

    /// The first cycle from `now` on in which the scheduler would do
    /// something while no unit moves and no memory event occurs;
    /// `Cycle::NEVER` if it is waiting for one of those.
    fn scheduler_next_move(&self) -> Cycle {
        match &self.phase {
            Phase::Drain if self.drain_starved => Cycle::NEVER,
            Phase::Fill { queue, .. } if queue.is_empty() => Cycle::NEVER,
            Phase::Drain | Phase::Fill { .. } | Phase::Done => self.now,
            // Quiescence can come with time alone only through the
            // coalescers' last writes retiring.
            Phase::Quiesce if self.quiescent_but_for_coalescers() => {
                self.now.max(self.bins_settle_at)
            }
            Phase::Quiesce => Cycle::NEVER,
        }
    }

    // ---- shard-mode lifecycle (epoch-barrier parallel engine) ----

    /// Advances the shard until it parks (runs dry) or reaches the epoch
    /// boundary at `epoch_end`.
    pub(crate) fn run_epoch(&mut self, epoch_end: Cycle) -> Result<(), RunError> {
        debug_assert!(self.shard_mode);
        self.run_until(epoch_end)
    }

    /// Whether the shard has run dry (no resident events, all units idle).
    pub(crate) fn parked(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Delivers the epoch-barrier inbox (already merged in deterministic
    /// order by the driver) at barrier time `at`, reviving the shard if it
    /// was parked.
    pub(crate) fn deliver(&mut self, at: Cycle, events: impl IntoIterator<Item = Event<A::Delta>>) {
        debug_assert!(self.shard_mode);
        if self.parked() {
            // The cycles up to the barrier were never simulated: parked
            // units owe their timelines nothing for them.
            self.settle_parked_units(at);
            self.parked_cycles += at - self.now;
            self.now = at;
            self.slice_activations += 1;
            for bin in &mut self.bins {
                bin.reset_sweep();
            }
            self.refresh_bin_order();
            self.current_bin = 0;
            self.phase = Phase::Drain;
        }
        for ev in events {
            self.install_resident(ev);
        }
    }

    /// Takes the per-destination outboxes accumulated this epoch.
    pub(crate) fn take_outboxes(&mut self) -> Vec<Vec<OutEvent<A::Delta>>> {
        for index in &mut self.outbox_index {
            index.clear();
        }
        let empty = (0..self.outbox.len()).map(|_| Vec::new()).collect();
        std::mem::replace(&mut self.outbox, empty)
    }

    /// Cycles simulated (the shard's share of the parallel work): the
    /// clock, less the spans it sat parked between epochs.
    pub(crate) fn ticks(&self) -> u64 {
        self.now.get() - self.parked_cycles
    }

    /// Books every parked unit's slept cycles up to `now`; the spans of
    /// those still parked restart at `resume`.
    fn settle_parked_units(&mut self, resume: Cycle) {
        let now = self.now;
        for p in &mut self.procs {
            p.settle(now, resume);
        }
        for s in self.units.iter_mut().flat_map(|u| &mut u.streams) {
            s.settle(now, resume);
        }
    }

    /// The waiters of the channel that turned a request for `line` away.
    fn refused_by(&mut self, line: u64) -> &mut Refused {
        &mut self.refused[self.mem.channel_of(line) % 64]
    }

    /// One cycle. Only units that are awake are visited, but in the order
    /// an every-unit sweep would reach them — processor index, unit then
    /// stream index, port rotation, bin index: who asks memory first
    /// decides request ids, channel-queue order and so DRAM timing.
    fn tick(&mut self) {
        let now = self.now;
        let mut dequeued = self.mem.tick(now);
        while dequeued != 0 {
            let waiting = &mut self.refused[dequeued.trailing_zeros() as usize];
            self.procs_awake.absorb(&mut waiting.procs);
            self.streams_awake.absorb(&mut waiting.streams);
            dequeued &= dequeued - 1;
        }
        self.route_completions();
        self.tick_spill_writes();
        self.tick_scheduler();
        self.tick_processors();
        self.tick_generation();
        self.tick_network();
        self.tick_bins();
        self.now = now.next();
    }

    fn route_completions(&mut self) {
        while let Some(req) = self.mem.pop_completion(self.now) {
            match self.pending_mem.remove(req.id()) {
                Some(MemTarget::VertexLine { proc, line }) => {
                    self.procs[proc].line_arrived(line);
                    self.activity.scratchpad_accesses += 1;
                    self.procs_awake.insert(proc);
                    self.procs_busy.set(proc, !self.procs[proc].is_quiescent());
                }
                Some(MemTarget::EdgeLine { unit, line }) => {
                    let evicted = self.units[unit].line_arrived(line);
                    // A stream waiting for this very line can go on; one
                    // that had counted the evicted line as resident has a
                    // request to make.
                    let first = unit * self.cfg.gen_streams;
                    for (s, stream) in self.units[unit].streams.iter().enumerate() {
                        if stream.parked_in(GT_EDGE_READ) && (evicted || stream.wait_line == line) {
                            self.streams_awake.insert(first + s);
                        }
                    }
                    self.units_busy.set(unit, !self.units[unit].is_quiescent());
                }
                Some(MemTarget::FillChunk { events }) => {
                    for ev in events {
                        self.install_resident(ev);
                    }
                    if let Phase::Fill { outstanding, .. } = &mut self.phase {
                        *outstanding -= 1;
                    }
                }
                Some(MemTarget::VertexWriteAck) | Some(MemTarget::SpillWrite) => {}
                None => unreachable!("completion for unknown request"),
            }
        }
    }

    fn tick_spill_writes(&mut self) {
        while self.spill_pending_bytes >= LINE_BYTES {
            let addr = self.spill_base + self.spill_bump * LINE_BYTES;
            if !self.mem.can_accept(addr) {
                break;
            }
            let addr = self.next_spill_addr();
            let req = MemRequest::write(addr, LINE_BYTES as u32, TrafficClass::EventSpill);
            let id = self.mem.request(self.now, req).expect("can_accept checked");
            self.pending_mem.insert(id, MemTarget::SpillWrite);
            self.spill_pending_bytes -= LINE_BYTES;
        }
    }

    /// Flushes a sub-line remainder of spilled events (slice end).
    fn flush_spill_remainder(&mut self) {
        if self.spill_pending_bytes == 0 {
            return;
        }
        let bytes = self.spill_pending_bytes as u32;
        self.spill_pending_bytes = 0;
        let addr = self.next_spill_addr();
        let req = MemRequest::write(addr, bytes, TrafficClass::EventSpill);
        match self.mem.request(self.now, req) {
            Ok(id) => {
                self.pending_mem.insert(id, MemTarget::SpillWrite);
            }
            Err(_) => {
                // Retry next cycle via the normal spill path.
                self.spill_pending_bytes = u64::from(bytes);
            }
        }
    }

    // ---- scheduler ----

    fn tick_scheduler(&mut self) {
        match &mut self.phase {
            Phase::Drain => self.tick_drain(),
            Phase::Quiesce => self.tick_quiesce(),
            Phase::Fill { .. } => self.tick_fill(),
            Phase::Done => {}
        }
    }

    fn tick_drain(&mut self) {
        self.drain_starved = false;
        loop {
            if self.current_bin >= self.bins.len() {
                self.phase = Phase::Quiesce;
                return;
            }
            let bin_idx = self.bin_order[self.current_bin];
            match self.bins[bin_idx].peek_drain(self.now) {
                None => {
                    // Bin exhausted for this round; checking the next one
                    // costs no extra drain slot (priority encoder).
                    self.current_bin += 1;
                }
                Some((_, 0)) => return, // row busy in the coalescer: retry next cycle
                Some((row, count)) => {
                    let Some(target) = self.pick_processor(count) else {
                        self.drain_starved = true;
                        return; // all input buffers too full: stall
                    };
                    let events = self.bins[bin_idx].drain_row(row, self.now);
                    self.activity.queue_reads += 1;
                    let base_local = row_base_index(bin_idx, row, &self.cfg.queue);
                    debug_assert!(events.iter().all(|e| {
                        let local =
                            self.partition.slices()[self.active_slice].local_index(e.target);
                        local >= base_local && local < base_local + self.cfg.queue.cols
                    }));
                    for ev in events {
                        self.current_round.drained += 1;
                        self.current_round.lookahead.record(ev.meta.lookahead());
                        let line =
                            vertex_line(self.vertex_base, self.cfg.vertex_bytes, ev.target.get());
                        self.procs[target].push_token(ProcToken {
                            event: ev,
                            arrived: self.now,
                            line,
                            demand_issued: false,
                        });
                    }
                    self.procs_awake.insert(target);
                    self.procs_busy.insert(target);
                    self.dispatch_rr = target + 1;
                    return; // one row per cycle
                }
            }
        }
    }

    fn pick_processor(&self, needed: usize) -> Option<usize> {
        let n = self.procs.len();
        (0..n)
            .map(|i| (self.dispatch_rr + i) % n)
            .find(|&p| self.procs[p].free_input() >= needed)
    }

    /// Every unit idle, the coalescers' in-flight writes aside.
    fn quiescent_but_for_coalescers(&self) -> bool {
        self.pending_mem.is_empty()
            && self.mem.is_idle()
            && self.xbar.is_empty()
            && self.bins_active.is_empty()
            && self.procs_busy.is_empty()
            && self.units_busy.is_empty()
    }

    fn is_quiescent(&self) -> bool {
        let quiescent = self.quiescent_but_for_coalescers() && self.now >= self.bins_settle_at;
        debug_assert_eq!(
            quiescent,
            self.pending_mem.is_empty()
                && self.mem.is_idle()
                && self.xbar.is_empty()
                && self.bins.iter().all(|b| b.is_quiescent(self.now))
                && self.procs.iter().all(Processor::is_quiescent)
                && self.units.iter().all(GenUnit::is_quiescent),
            "the busy sets disagree with the units at {}",
            self.now
        );
        quiescent
    }

    fn tick_quiesce(&mut self) {
        if !self.is_quiescent() {
            return;
        }
        // End of round.
        let remaining = self.total_occupancy() as u64;
        let mut metrics = std::mem::take(&mut self.current_round);
        metrics.round = self.round;
        metrics.remaining = remaining;
        self.rounds_log.push(metrics);

        self.round += 1;

        if remaining == 0 {
            if self.shard_mode {
                // Shards never swap slices: park until the epoch barrier
                // delivers new events (or the whole run terminates).
                self.phase = Phase::Done;
                return;
            }
            self.flush_spill_remainder();
            if let Some(next) = self.next_slice_with_work() {
                self.start_slice_swap(next);
            } else if self.spill_pending_bytes == 0 && self.pending_mem.is_empty() {
                self.phase = Phase::Done;
            }
            // else: wait for the remainder flush to drain, then re-check.
            return;
        }

        for bin in &mut self.bins {
            bin.reset_sweep();
        }
        self.refresh_bin_order();
        self.current_bin = 0;
        self.phase = Phase::Drain;
    }

    fn next_slice_with_work(&self) -> Option<usize> {
        let k = self.spill.len();
        (1..=k)
            .map(|i| (self.active_slice + i) % k)
            .find(|&s| !self.spill[s].is_empty())
    }

    fn start_slice_swap(&mut self, next: usize) {
        self.active_slice = next;
        self.slice_activations += 1;
        for p in &mut self.procs {
            p.reset_for_swap();
        }
        for u in &mut self.units {
            u.reset_for_swap();
        }
        for bin in &mut self.bins {
            bin.reset_sweep();
        }
        self.current_bin = 0;
        let queue = std::mem::take(&mut self.spill[next]);
        self.phase = Phase::Fill {
            queue,
            outstanding: 0,
        };
    }

    fn tick_fill(&mut self) {
        let events_per_chunk = (LINE_BYTES / u64::from(self.cfg.event_bytes)).max(1) as usize;
        // Issue up to one chunk read per channel per cycle.
        for _ in 0..self.cfg.dram.channels {
            let Phase::Fill { queue, outstanding } = &mut self.phase else {
                return;
            };
            if queue.is_empty() {
                if *outstanding == 0 && self.pending_mem.is_empty() && self.mem.is_idle() {
                    // Swap-in complete: resume normal rounds.
                    self.refresh_bin_order();
                    self.phase = Phase::Drain;
                }
                return;
            }
            let addr = self.spill_base + self.spill_bump * LINE_BYTES;
            if !self.mem.can_accept(addr) {
                return;
            }
            let take = queue.len().min(events_per_chunk);
            let events: Vec<_> = queue.drain(..take).collect();
            let bytes = (take as u32) * self.cfg.event_bytes;
            *outstanding += 1;
            let addr = self.next_spill_addr();
            let req = MemRequest::read(addr, bytes, TrafficClass::EventFill);
            let id = self.mem.request(self.now, req).expect("can_accept checked");
            self.pending_mem.insert(id, MemTarget::FillChunk { events });
        }
    }

    // ---- processors ----

    fn tick_processors(&mut self) {
        let mut from = 0;
        while let Some(p) = self.procs_awake.next_from(from) {
            self.tick_processor(p);
            from = p + 1;
        }
    }

    /// Hands `task` to processor `p`'s generation unit, which has space.
    fn queue_gen_task(&mut self, p: usize, task: GenTask<A::Delta>) {
        self.units[p].push_task(task);
        self.units_busy.insert(p);
        let first = p * self.cfg.gen_streams;
        for (s, stream) in self.units[p].streams.iter().enumerate() {
            if stream.parked_in(GT_IDLE) {
                self.streams_awake.insert(first + s);
            }
        }
    }

    fn tick_processor(&mut self, p: usize) {
        let now = self.now;
        self.procs[p].settle(now, now);
        self.procs[p].parked = None;
        let mut state = ST_IDLE;
        // Whether this tick changed anything, and the lines whose channel
        // turned a request away: a tick that changed nothing repeats until
        // something outside the processor does.
        let mut acted = false;
        let mut turned_away = [None; 2];

        // 1. Retry a stalled generation hand-off.
        if let Some(task) = self.procs[p].stalled.take() {
            if self.units[p].has_space() {
                let task = GenTask {
                    queued_at: now,
                    ..task
                };
                self.queue_gen_task(p, task);
                acted = true;
            } else {
                self.procs[p].stalled = Some(task);
                state = ST_STALL;
            }
        }

        // 2. Retire the apply pipeline (blocked while a hand-off is stalled).
        if self.procs[p].stalled.is_none() {
            if let Some(op) = self.procs[p].pipeline.retire(now) {
                self.apply_op(p, op);
                state = ST_PROCESS;
                acted = true;
            }
        }

        // 3. Issue the next ready event into the apply pipeline.
        if self.procs[p].pipeline.can_issue(now) {
            if let Some(token) = self.procs[p].pop_ready() {
                self.stages.vtx_mem.record((now - token.arrived) as f64);
                self.activity.scratchpad_accesses += 1;
                self.procs[p].pipeline.issue(
                    now,
                    ApplyOp {
                        event: token.event,
                        issued: now,
                    },
                );
                state = ST_PROCESS;
                acted = true;
            }
        }

        // 4. Vertex-line fetches: block prefetch or baseline demand reads.
        let fetch = if self.cfg.prefetch {
            self.procs[p].next_prefetch()
        } else {
            self.procs[p].next_demand().map(|line| (line, 1))
        };
        if let Some((line, events_on_line)) = fetch {
            if self.mem.can_accept(line) {
                let useful = (events_on_line * self.cfg.vertex_bytes).min(LINE_BYTES as u32);
                let req = MemRequest::read(line, LINE_BYTES as u32, TrafficClass::VertexRead)
                    .with_useful_bytes(useful);
                let id = self.mem.request(now, req).expect("can_accept checked");
                self.pending_mem
                    .insert(id, MemTarget::VertexLine { proc: p, line });
                self.procs[p].line_requested(line);
                acted = true;
            } else {
                turned_away[0] = Some(line);
                if !self.cfg.prefetch {
                    self.procs[p].demand_refused();
                }
            }
        }

        // 5. Retry rejected vertex write-backs, and flush the
        //    write-combining buffer once the processor runs out of work.
        if let Some(&(line, bytes)) = self.procs[p].write_retry.front() {
            if self.mem.can_accept(line) {
                self.procs[p].write_retry.pop_front();
                self.issue_vertex_write(p, line, bytes);
                acted = true;
            } else {
                turned_away[1] = Some(line);
            }
        }
        if self.procs[p].input_is_empty() && self.procs[p].pipeline.is_empty() {
            if let Some((line, bytes)) = self.procs[p].write_combine.take() {
                self.issue_vertex_write(p, line, bytes);
                acted = true;
            }
        }

        // 6. State accounting (Fig. 14 left bars).
        if state == ST_IDLE && !self.procs[p].input_is_empty() {
            state = ST_VERTEX_READ; // waiting on vertex data
        }
        self.procs[p].timeline.add(state, 1);
        self.procs_busy.set(p, !self.procs[p].is_quiescent());

        // 7. Park if the next tick would be this one again. Beyond the
        //    clock reaching the apply pipeline's next retirement (blocked
        //    while a hand-off is stalled), what can make it differ is a
        //    block from the scheduler, a line from memory, the generation
        //    unit taking a task, or a refusing channel dequeuing — and each
        //    of those wakes the processor.
        let proc = &mut self.procs[p];
        if !acted && (proc.pipeline.is_empty() || proc.stalled.is_some()) {
            proc.parked = Some(Parked {
                since: now.next(),
                state,
            });
            self.procs_awake.remove(p);
            for line in turned_away.into_iter().flatten() {
                self.refused_by(line).procs.insert(p);
            }
        }
    }

    /// Issues (or queues for retry) one combined vertex write-back burst.
    fn issue_vertex_write(&mut self, p: usize, line: u64, bytes: u32) {
        if self.mem.can_accept(line) {
            let req = MemRequest::write(line, bytes, TrafficClass::VertexWrite);
            let id = self.mem.request(self.now, req).expect("can_accept checked");
            self.pending_mem.insert(id, MemTarget::VertexWriteAck);
        } else {
            self.procs[p].write_retry.push_back((line, bytes));
        }
    }

    fn apply_op(&mut self, p: usize, op: ApplyOp<A::Delta>) {
        let now = self.now;
        let v = op.event.target;
        let basis = apply_event(self.algo, &mut self.values, v, op.event.delta);
        self.events_processed += 1;
        self.activity.proc_ops += 1;
        // The apply pipeline itself is fixed-latency; any extra time before
        // retirement is back-pressure from a full generation buffer, which
        // belongs to the Gen-Buffer stage (Fig. 13 attribution).
        self.stages.process.record(self.cfg.process_latency as f64);
        let stall = (now - op.issued).saturating_sub(self.cfg.process_latency);
        if stall > 0 {
            self.stages.gen_buffer.record(stall as f64);
        }
        // Write the updated property back through the write-combining
        // buffer: block scheduling processes consecutive vertices
        // back-to-back, so write-backs merge into sequential line writes
        // (Fig. 5 "SEQ WRITE").
        let line = vertex_line(self.vertex_base, self.cfg.vertex_bytes, v.get());
        if let Some((flush_line, bytes)) = self.procs[p].combine_write(line, self.cfg.vertex_bytes)
        {
            self.issue_vertex_write(p, flush_line, bytes);
        }

        // Local termination (Algorithm 1 line 8) passed: the generation
        // streams walk the out-edges.
        if let Some(basis) = basis {
            let degree = self.graph.out_degree(v);
            if degree > 0 {
                let task = GenTask {
                    vertex: v,
                    basis,
                    degree,
                    depth: op.event.meta.depth_max + 1,
                    queued_at: now,
                };
                if self.units[p].has_space() {
                    self.queue_gen_task(p, task);
                } else {
                    self.procs[p].stalled = Some(task);
                }
            }
        }
    }

    // ---- generation ----

    fn tick_generation(&mut self) {
        // A 32-bit divide is several times cheaper than a 64-bit one, and
        // stream indices are unit-sized.
        let per_unit = self.cfg.gen_streams as u32;
        let mut from = 0;
        while let Some(g) = self.streams_awake.next_from(from) {
            let (u, s) = (g as u32 / per_unit, g as u32 % per_unit);
            self.tick_stream(u as usize, s as usize);
            from = g + 1;
        }
    }

    /// Parks stream `s` of unit `u` after a tick that changed nothing and
    /// recorded `state`: every following cycle repeats it until the stream
    /// is woken.
    fn park_stream(&mut self, u: usize, s: usize, state: usize) {
        self.units[u].streams[s].parked = Some(Parked {
            since: self.now.next(),
            state,
        });
        self.streams_awake.remove(u * self.cfg.gen_streams + s);
    }

    fn tick_stream(&mut self, u: usize, s: usize) {
        let now = self.now;
        self.units[u].streams[s].settle(now, now);
        self.units[u].streams[s].parked = None;

        // Pull a task if idle.
        if self.units[u].streams[s].active.is_none() && self.units[u].streams[s].pending.is_none() {
            if let Some(task) = self.units[u].buffer.pop_front() {
                self.stages.gen_buffer.record((now - task.queued_at) as f64);
                self.units[u].streams[s].start(task);
                // Room in the buffer: a stalled hand-off can go through.
                self.procs_awake.insert(u);
            }
        }

        // Flush a port-stalled event first.
        if let Some(flit) = self.units[u].streams[s].pending.take() {
            let state;
            let port = self.units[u].streams[s].port;
            if self.xbar.can_send(port) {
                self.xbar.send(port, flit);
                self.activity.network_flits += 1;
                if let Some(active) = &mut self.units[u].streams[s].active {
                    active.gen_cycles += 1;
                }
                self.stream_let_go(u);
                state = GT_GENERATE;
            } else {
                self.units[u].streams[s].pending = Some(flit);
                state = GT_STALL;
            }
            self.units[u].streams[s].timeline.add(state, 1);
            return;
        }

        let Some(active) = &self.units[u].streams[s].active else {
            // No task and none queued: asleep until the processor hands
            // the unit one.
            self.units[u].streams[s].timeline.add(GT_IDLE, 1);
            self.park_stream(u, s, GT_IDLE);
            return;
        };
        let vertex = active.task.vertex;
        let degree = active.task.degree;
        let next_edge = active.next_edge;

        // The task may already be complete if its final event was
        // port-stalled and flushed on an earlier cycle.
        if next_edge >= degree {
            let active = self.units[u].streams[s].active.take().expect("active");
            self.stages.edge_mem.record(active.edge_wait as f64);
            self.stages.generate.record(active.gen_cycles as f64);
            self.stream_let_go(u);
            self.units[u].streams[s].timeline.add(GT_IDLE, 1);
            return;
        }

        // Edge prefetch: keep up to N lines ahead in flight (§V).
        let prefetch = self.issue_edge_prefetch(u, s, vertex, next_edge, degree);

        // Consume one edge per cycle if its line is resident.
        let addr = self.edge_addr(vertex, next_edge);
        let line = line_base(addr);
        let state;
        if self.units[u].cache.touch(line) {
            let edge = self
                .graph
                .out_edges(vertex)
                .get(next_edge as usize)
                .expect("next_edge < degree");
            let active = self.units[u].streams[s].active.as_mut().expect("active");
            active.next_edge += 1;
            active.gen_cycles += 1;
            let basis = active.task.basis;
            let depth = active.task.depth;
            state = GT_GENERATE;
            if let Some(delta) = self.algo.propagate(basis, vertex, degree, edge) {
                let ev = Event::new(edge.other, delta, depth);
                self.events_generated += 1;
                self.current_round.produced += 1;
                let flit = Flit {
                    route: self.route_of(&ev),
                    event: ev,
                };
                let port = self.units[u].streams[s].port;
                if self.xbar.can_send(port) {
                    self.xbar.send(port, flit);
                    self.activity.network_flits += 1;
                } else {
                    self.units[u].streams[s].pending = Some(flit);
                }
            }
        } else {
            let active = self.units[u].streams[s].active.as_mut().expect("active");
            active.edge_wait += 1;
            state = GT_EDGE_READ;
            // Waiting for `line` with nothing requested this cycle: the
            // next cycle differs only once `line` arrives, a fill evicts a
            // line of the window, or — if a channel turned the window's
            // next request away — that channel dequeues.
            if !matches!(prefetch, Prefetch::Issued) {
                self.units[u].streams[s].wait_line = line;
                self.park_stream(u, s, GT_EDGE_READ);
                if let Prefetch::TurnedAway(missing) = prefetch {
                    let stream = u * self.cfg.gen_streams + s;
                    self.refused_by(missing).streams.insert(stream);
                }
            }
        }

        // Task finished?
        let finished = {
            let stream = &self.units[u].streams[s];
            stream.pending.is_none()
                && stream
                    .active
                    .as_ref()
                    .is_some_and(|a| a.next_edge >= a.degree_of_task())
        };
        if finished {
            let active = self.units[u].streams[s].active.take().expect("active");
            self.stages.edge_mem.record(active.edge_wait as f64);
            self.stages.generate.record(active.gen_cycles as f64);
            self.stream_let_go(u);
        }
        self.units[u].streams[s].timeline.add(state, 1);
    }

    /// A stream of unit `u` finished a task or flushed its last event — the
    /// two ways a stream's tick can leave its unit quiescent.
    fn stream_let_go(&mut self, u: usize) {
        self.units_busy.set(u, !self.units[u].is_quiescent());
    }

    /// Requests the first line of the stream's prefetch window that is
    /// neither resident nor on its way, if memory takes it.
    fn issue_edge_prefetch(
        &mut self,
        u: usize,
        s: usize,
        vertex: VertexId,
        next_edge: u32,
        degree: u32,
    ) -> Prefetch {
        if next_edge >= degree {
            return Prefetch::Covered;
        }
        let first_line = line_base(self.edge_addr(vertex, next_edge));
        let last_line = line_base(self.edge_addr(vertex, degree - 1));
        let window_end = (first_line
            + (self.cfg.edge_prefetch_depth.saturating_sub(1)) * LINE_BYTES)
            .min(last_line);
        let mut line = self.units[u].unchecked_from(s, first_line);
        while line <= window_end {
            if !self.units[u].cache.contains(line) && !self.units[u].pending_lines.contains(&line) {
                self.units[u].note_covered_to(s, line);
                if !self.mem.can_accept(line) {
                    return Prefetch::TurnedAway(line); // blocked wait
                }
                self.units[u].cache.probe(line); // counts the miss
                let list_end = self.edge_addr(vertex, degree - 1) + u64::from(self.edge_bytes);
                let useful = (list_end.min(line + LINE_BYTES) - line.max(self.edge_addr(vertex, 0)))
                    .min(LINE_BYTES) as u32;
                let req = MemRequest::read(line, LINE_BYTES as u32, TrafficClass::EdgeRead)
                    .with_useful_bytes(useful.max(1).min(LINE_BYTES as u32));
                let id = self.mem.request(self.now, req).expect("can_accept checked");
                self.pending_mem
                    .insert(id, MemTarget::EdgeLine { unit: u, line });
                self.units[u].line_requested(line);
                self.units[u].note_covered_to(s, line + LINE_BYTES);
                return Prefetch::Issued; // at most one issue per cycle
            }
            line += LINE_BYTES;
        }
        self.units[u].note_covered_to(s, line);
        Prefetch::Covered
    }

    // ---- network & bins ----

    fn tick_network(&mut self) {
        let now = self.now.get();
        // Port priority rotates once per simulated cycle.
        let cycle = now - self.parked_cycles;
        let Machine {
            xbar,
            bins,
            bins_active,
            spill,
            events_spilled,
            spill_pending_bytes,
            cfg,
            algo,
            shard_mode,
            outbox,
            outbox_index,
            out_seq,
            events_coalesced,
            current_round,
            ..
        } = self;
        xbar.tick(cycle, |flit| match flit.route {
            Route::Bin { bin, row, col } => {
                let room = bins[bin].can_accept();
                if room {
                    bins[bin].accept(SlotAddr { bin, row, col }, flit.event);
                    bins_active.insert(bin);
                }
                room
            }
            Route::Spill { slice } => {
                *events_spilled += 1;
                if *shard_mode {
                    match outbox_index[slice].entry(flit.event.target.get()) {
                        std::collections::hash_map::Entry::Occupied(at) => {
                            let existing = &mut outbox[slice][*at.get()].event;
                            existing.delta = algo.coalesce(existing.delta, flit.event.delta);
                            existing.meta = existing.meta.merge(flit.event.meta);
                            *events_coalesced += 1;
                            current_round.coalesced_away += 1;
                        }
                        std::collections::hash_map::Entry::Vacant(at) => {
                            at.insert(outbox[slice].len());
                            outbox[slice].push(OutEvent {
                                cycle: now,
                                seq: *out_seq,
                                event: flit.event,
                            });
                            *out_seq += 1;
                        }
                    }
                } else {
                    spill[slice].push_back(flit.event);
                    *spill_pending_bytes += u64::from(cfg.event_bytes);
                }
                true
            }
        });
    }

    fn tick_bins(&mut self) {
        let mut from = 0;
        while let Some(b) = self.bins_active.next_from(from) {
            from = b + 1;
            let bin = &mut self.bins[b];
            if let Some(outcome) = bin.tick_insert(self.now, self.algo) {
                self.activity.queue_reads += 1; // slot probe
                self.activity.queue_writes += 1; // slot write
                if outcome == InsertOutcome::Coalesced {
                    self.events_coalesced += 1;
                    self.current_round.coalesced_away += 1;
                    self.activity.coalesce_ops += 1;
                }
                // The scheduler sees the write through its retire cycle.
                self.bins_settle_at = self.now + self.cfg.coalescer_depth + 1;
                if bin.input_is_empty() {
                    self.bins_active.remove(b);
                }
            }
        }
    }

    // ---- teardown ----

    /// Tears the machine down into its typed vertex values (all of them,
    /// in shard mode too) plus the execution report.
    pub(crate) fn finish(mut self) -> Outcome<A::Value> {
        self.settle_parked_units(self.now);
        let cycles = self.now.get();
        let mut proc_timeline = StateTimeline::new(&PROC_STATES);
        for p in &self.procs {
            proc_timeline.merge(&p.timeline);
        }
        let mut gen_timeline = StateTimeline::new(&GEN_STATES);
        let mut cache_hits = 0;
        let mut cache_misses = 0;
        for u in &self.units {
            cache_hits += u.cache.hits();
            cache_misses += u.cache.misses();
            for s in &u.streams {
                gen_timeline.merge(&s.timeline);
            }
        }
        let energy = EnergyReport::for_run(self.cfg, self.activity, cycles);
        let report = ExecutionReport {
            cycles,
            seconds: energy.seconds,
            rounds: self.round,
            slices: self.partition.len().max(1) as u64,
            slice_activations: self.slice_activations,
            events_processed: self.events_processed,
            events_generated: self.events_generated,
            events_coalesced: self.events_coalesced,
            events_spilled: self.events_spilled,
            rounds_log: self.rounds_log,
            stages: self.stages,
            proc_timeline,
            gen_timeline,
            memory: self.mem.stats().clone(),
            edge_cache_hits: cache_hits,
            edge_cache_misses: cache_misses,
            energy,
        };
        Outcome {
            values: self.values,
            report,
        }
    }
}

impl<D> ActiveGen<D> {
    fn degree_of_task(&self) -> u32 {
        self.task.degree
    }
}

/// What a stream's edge prefetcher did in a cycle.
enum Prefetch {
    /// Requested a line.
    Issued,
    /// Every line of the window is resident or on its way.
    Covered,
    /// The window's first missing line, refused by its channel's queue.
    TurnedAway(u64),
}

/// `LINE_BYTES` as `u32` for the write-combining cap.
pub(crate) const LINE_BYTES_U32: u32 = LINE_BYTES as u32;

fn align_up(addr: u64) -> u64 {
    addr.div_ceil(LINE_BYTES) * LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::engine::run_sequential;
    use gp_algorithms::{max_abs_diff, Bfs, ConnectedComponents, PageRankDelta, Sssp};
    use gp_graph::generators::{erdos_renyi, grid_2d, rmat, RmatConfig, WeightMode};
    use gp_graph::CsrGraph;

    fn small_graph() -> CsrGraph {
        erdos_renyi(200, 1_000, WeightMode::Unweighted, 11)
    }

    #[test]
    fn pagerank_matches_golden_engine() {
        let g = small_graph();
        let algo = PageRankDelta::new(0.85, 1e-7);
        let accel = GraphPulse::new(AcceleratorConfig::small_test());
        let out = accel.run(&g, &algo).unwrap();
        let golden = run_sequential(&algo, &g);
        assert!(
            max_abs_diff(&out.values, &golden.values) < 1e-3,
            "accelerator diverged from golden engine"
        );
        assert!(out.report.cycles > 0);
        assert!(out.report.events_processed > 0);
    }

    #[test]
    fn sssp_exact_match() {
        let g = erdos_renyi(150, 900, WeightMode::Uniform(1.0, 9.0), 3);
        let algo = Sssp::new(VertexId::new(0));
        let accel = GraphPulse::new(AcceleratorConfig::small_test());
        let out = accel.run(&g, &algo).unwrap();
        let golden = gp_algorithms::reference::sssp_dijkstra(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-6);
    }

    #[test]
    fn bfs_on_grid() {
        let g = grid_2d(12, 12, WeightMode::Unweighted, 0);
        let algo = Bfs::new(VertexId::new(0));
        let out = GraphPulse::new(AcceleratorConfig::small_test())
            .run(&g, &algo)
            .unwrap();
        let golden = gp_algorithms::reference::bfs_levels(&g, VertexId::new(0));
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
    }

    #[test]
    fn cc_on_skewed_graph() {
        let g = rmat(&RmatConfig::graph500(256, 1_024), 7);
        let algo = ConnectedComponents::new();
        let out = GraphPulse::new(AcceleratorConfig::small_test())
            .run(&g, &algo)
            .unwrap();
        let golden = gp_algorithms::reference::cc_labels(&g);
        assert!(max_abs_diff(&out.values, &golden) < 1e-9);
    }

    #[test]
    fn sliced_run_matches_unsliced() {
        // Capacity 128 vertices per slice forces 2+ slices on 200 vertices.
        let g = small_graph();
        let algo = PageRankDelta::new(0.85, 1e-7);
        let mut cfg = AcceleratorConfig::small_test();
        cfg.queue = crate::QueueConfig {
            bins: 4,
            rows: 4,
            cols: 8,
        }; // 128 slots
        let out = GraphPulse::new(cfg).run(&g, &algo).unwrap();
        assert!(out.report.slices >= 2);
        assert!(out.report.events_spilled > 0);
        assert!(out.report.slice_activations > out.report.slices);
        let golden = run_sequential(&algo, &g);
        assert!(max_abs_diff(&out.values, &golden.values) < 1e-3);
    }

    #[test]
    fn baseline_config_matches_too() {
        let g = erdos_renyi(100, 500, WeightMode::Unweighted, 5);
        let algo = PageRankDelta::new(0.85, 1e-6);
        let mut cfg = AcceleratorConfig::baseline();
        cfg.processors = 8; // keep the debug-build test fast
        cfg.queue = crate::QueueConfig {
            bins: 4,
            rows: 32,
            cols: 8,
        };
        cfg.crossbar_ports = 4;
        let out = GraphPulse::new(cfg).run(&g, &algo).unwrap();
        let golden = run_sequential(&algo, &g);
        assert!(max_abs_diff(&out.values, &golden.values) < 1e-3);
    }

    #[test]
    fn coalescing_eliminates_events_on_skewed_graphs() {
        let g = rmat(&RmatConfig::graph500(512, 4_096), 9);
        let algo = PageRankDelta::new(0.85, 1e-5);
        let out = GraphPulse::new(AcceleratorConfig::small_test())
            .run(&g, &algo)
            .unwrap();
        assert!(
            out.report.coalesce_rate() > 0.3,
            "expected significant coalescing, got {}",
            out.report.coalesce_rate()
        );
        // Conservation: processed + coalesced + still-queued(0) = generated.
        assert_eq!(
            out.report.events_processed + out.report.events_coalesced,
            out.report.events_generated
        );
    }

    #[test]
    fn empty_graph_terminates() {
        let g = gp_graph::GraphBuilder::new(0).build();
        let algo = PageRankDelta::new(0.85, 1e-4);
        let out = GraphPulse::new(AcceleratorConfig::small_test())
            .run(&g, &algo)
            .unwrap();
        assert!(out.values.is_empty());
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut cfg = AcceleratorConfig::small_test();
        cfg.processors = 0;
        let g = small_graph();
        let err = GraphPulse::new(cfg)
            .run(&g, &PageRankDelta::new(0.85, 1e-4))
            .unwrap_err();
        assert!(matches!(err, RunError::InvalidConfig(_)));
    }

    /// Both entry points must refuse `cfg` up front, not spin or panic.
    fn assert_refused(cfg: AcceleratorConfig) {
        let g = small_graph();
        let algo = PageRankDelta::new(0.85, 1e-4);
        let accel = GraphPulse::new(cfg);
        let sequential = accel.run(&g, &algo).map(drop);
        let parallel = accel.run_parallel(&g, &algo).map(drop);
        for err in [sequential, parallel] {
            assert!(matches!(err, Err(RunError::InvalidConfig(_))), "{err:?}");
        }
    }

    #[test]
    fn a_bin_input_fifo_without_an_entry_is_refused() {
        let mut cfg = AcceleratorConfig::small_test();
        cfg.bin_input_depth = 0;
        assert_refused(cfg);
    }

    #[test]
    fn a_generation_buffer_without_an_entry_is_refused() {
        let mut cfg = AcceleratorConfig::small_test();
        cfg.gen_buffer = 0;
        assert_refused(cfg);
    }

    #[test]
    fn a_scratchpad_without_a_line_is_refused() {
        let mut cfg = AcceleratorConfig::small_test();
        cfg.scratchpad_lines = 0;
        assert_refused(cfg);
    }

    #[test]
    fn an_edge_cache_set_count_off_a_power_of_two_is_refused() {
        for sets in [0, 3, 96] {
            let mut cfg = AcceleratorConfig::small_test();
            cfg.edge_cache.sets = sets;
            assert_refused(cfg);
        }
    }

    #[test]
    fn an_edge_cache_without_ways_is_refused() {
        let mut cfg = AcceleratorConfig::small_test();
        cfg.edge_cache.ways = 0;
        assert_refused(cfg);
    }

    #[test]
    fn report_timelines_cover_all_cycles() {
        // Every processor and every stream accounts for every simulated
        // cycle, visited or slept through: on the small machine, on the
        // paper's, with the graph in three slices (swap-ins, fills and
        // spills between them), and across three shards that park and are
        // revived at barriers (there the cycles are each shard's own).
        let g = erdos_renyi(100, 400, WeightMode::Unweighted, 2);
        let algo = PageRankDelta::new(0.85, 1e-5);
        let mut sliced = AcceleratorConfig::small_test();
        sliced.queue = crate::QueueConfig {
            bins: 2,
            rows: 3,
            cols: 8,
        }; // 48 slots: three slices of the 100 vertices
        for cfg in [
            AcceleratorConfig::small_test(),
            AcceleratorConfig::optimized(),
            sliced,
        ] {
            let procs = cfg.processors as u64;
            let streams = cfg.total_streams() as u64;
            let slices = 100usize.div_ceil(cfg.queue.capacity()).max(1) as u64;
            let out = GraphPulse::new(cfg).run(&g, &algo).unwrap();
            assert_eq!(out.report.slices, slices);
            assert_eq!(out.report.proc_timeline.total(), out.report.cycles * procs);
            assert_eq!(out.report.gen_timeline.total(), out.report.cycles * streams);
        }

        let mut sharded = AcceleratorConfig::small_test();
        sharded.parallel.shards = 3;
        sharded.parallel.epoch_cycles = 97;
        let procs = sharded.processors as u64;
        let streams = sharded.total_streams() as u64;
        let out = GraphPulse::new(sharded).run_parallel(&g, &algo).unwrap();
        assert_eq!(out.shards, 3);
        assert!(
            out.report.slice_activations > 3,
            "no shard was ever revived"
        );
        let simulated: u64 = out.shard_ticks.iter().sum();
        assert_eq!(out.report.proc_timeline.total(), simulated * procs);
        assert_eq!(out.report.gen_timeline.total(), simulated * streams);
    }
}

/// The wake conditions, one unit at a time: a parked unit must act in the
/// very cycle an every-cycle sweep would have seen it act, and its
/// accounts must come out as if it had been visited all along.
#[cfg(test)]
mod wake_tests {
    use super::*;
    use gp_algorithms::{PageRankDelta, Sssp};
    use gp_graph::generators::{erdos_renyi, WeightMode};
    use gp_graph::{CsrGraph, GraphBuilder};

    /// `sources` vertices with sixteen out-edges each — one 64-byte line
    /// of unweighted edge records per source, line `v` for source `v`.
    fn one_line_per_source(sources: u32) -> CsrGraph {
        let mut b = GraphBuilder::new(sources as usize + 16);
        for v in 0..sources {
            for t in 0..16 {
                b.add_edge(VertexId::new(v), VertexId::new(sources + t), 1.0);
            }
        }
        b.build()
    }

    fn task(v: u32) -> GenTask<f64> {
        GenTask {
            vertex: VertexId::new(v),
            basis: 1.0,
            degree: 16,
            depth: 0,
            queued_at: Cycle::ZERO,
        }
    }

    fn cycles_in(timeline: &StateTimeline, state: usize) -> u64 {
        timeline.fractions()[state].1
    }

    fn all_parked<A: DeltaAlgorithm, G: GraphView>(m: &Machine<'_, A, G>) -> bool {
        m.procs_awake.is_empty() && m.streams_awake.is_empty() && m.bins_active.is_empty()
    }

    #[test]
    fn a_stream_parked_on_a_line_resumes_in_the_cycle_it_arrives() {
        let g = one_line_per_source(1);
        let algo = PageRankDelta::new(0.85, 1e-9);
        let cfg = AcceleratorConfig::small_test();
        let mut m = Machine::new(&cfg, &g, &algo, vec![Default::default(); g.num_vertices()]);
        let line = line_base(m.edge_addr(VertexId::new(0), 0));
        m.queue_gen_task(0, task(0));

        // Requested in cycle 0, issued to the idle DRAM in cycle 1: an
        // activate, a column read and the 64-byte burst later it is back.
        let burst = (LINE_BYTES as f64 / cfg.dram.bytes_per_cycle).ceil() as u64;
        let arrival = Cycle::new(1 + cfg.dram.t_rcd + cfg.dram.t_cas + burst);

        let mut ticked = 0;
        let parked_before = loop {
            let before = m.units[0].streams[0].parked;
            let at = m.now;
            m.tick();
            ticked += 1;
            if m.units[0].cache.contains(line) {
                assert_eq!(at, arrival, "the line is back in cycle {at}");
                break before;
            }
            m.skip_idle_cycles(Cycle::NEVER);
        };
        // Cycle 0 requested the line, cycle 1 had nothing more to ask for:
        // parked from cycle 2 on, and the machine did not tick through it.
        let parked = parked_before.expect("the stream slept until the line came");
        assert_eq!((parked.since, parked.state), (Cycle::new(2), GT_EDGE_READ));
        assert!(ticked < 6, "{ticked} ticks for {arrival} cycles");

        // The arrival cycle itself already emitted the first edge, and the
        // wait is every cycle before it, slept or not.
        let stream = &m.units[0].streams[0];
        let active = stream.active.as_ref().expect("mid-task");
        assert_eq!(active.next_edge, 1);
        assert_eq!(active.edge_wait, arrival.get());
        assert_eq!(cycles_in(&stream.timeline, GT_EDGE_READ), arrival.get());
        assert_eq!(cycles_in(&stream.timeline, GT_GENERATE), 1);
        assert_eq!(stream.timeline.total(), arrival.get() + 1);
    }

    #[test]
    fn refused_streams_issue_when_the_channel_has_room_in_stream_order() {
        // One channel with a one-entry queue, three streams with a line
        // each to fetch. Stream 0 gets the entry; 1 and 2 are refused and
        // sleep. Each dequeue makes room for exactly one: stream 1 takes
        // the first, stream 2 the second, each in the dequeue's own cycle.
        let g = one_line_per_source(3);
        let algo = PageRankDelta::new(0.85, 1e-9);
        let mut cfg = AcceleratorConfig::small_test();
        cfg.gen_streams = 3;
        cfg.dram = gp_mem::DramConfig::single_channel();
        cfg.dram.queue_depth = 1;
        let mut m = Machine::new(&cfg, &g, &algo, vec![Default::default(); g.num_vertices()]);
        let lines: Vec<u64> = (0..3)
            .map(|v| line_base(m.edge_addr(VertexId::new(v), 0)))
            .collect();
        for v in 0..3 {
            m.queue_gen_task(0, task(v));
        }

        let mut requested: [Option<Cycle>; 3] = [None; 3];
        let mut ticked = 0;
        while requested[2].is_none() {
            let at = m.now;
            m.tick();
            ticked += 1;
            for (s, line) in lines.iter().enumerate() {
                if requested[s].is_none() && m.units[0].pending_lines.contains(line) {
                    requested[s] = Some(at);
                }
            }
            for s in 1..3 {
                if requested[s].is_none() {
                    // Still waiting: then no room went unused this cycle,
                    // and the stream sleeps on the channel, not on a poll.
                    assert!(!m.mem.can_accept(lines[s]), "room left over in {at}");
                    assert!(m.units[0].streams[s].parked_in(GT_EDGE_READ));
                    assert_ne!(m.streams_awake.next_from(s), Some(s));
                }
            }
            m.skip_idle_cycles(Cycle::NEVER);
        }
        let [r0, r1, r2] = requested.map(|c| c.expect("requested").get());
        assert_eq!((r0, r1), (0, 1), "the first dequeue is cycle 1's");
        assert!(r2 > r1 + 1, "the second dequeue waits for the bus");
        assert!(ticked < r2, "{ticked} ticks for {r2} cycles");
        // Slept through, the wait still counts cycle for cycle.
        let waited = m.units[0].streams[2].active.as_ref().unwrap().edge_wait;
        assert_eq!(waited, r2 + 1);
    }

    #[test]
    fn a_stalled_hand_off_goes_through_when_the_unit_takes_a_task() {
        // A one-entry generation buffer, both streams busy on long waits:
        // the processor's second task stalls, the processor parks, and the
        // cycle a stream frees up and pulls the buffered task is followed
        // by the cycle the stalled one enters the buffer.
        let g = one_line_per_source(4);
        let algo = PageRankDelta::new(0.85, 1e-9);
        let mut cfg = AcceleratorConfig::small_test();
        cfg.gen_buffer = 1;
        let mut m = Machine::new(&cfg, &g, &algo, vec![Default::default(); g.num_vertices()]);
        m.queue_gen_task(0, task(0));
        m.tick(); // stream 0 takes task 0
        m.queue_gen_task(0, task(1));
        m.tick(); // stream 1 takes task 1
        m.queue_gen_task(0, task(2)); // buffered: no stream is free
        m.procs[0].stalled = Some(task(3));
        m.procs_awake.insert(0);
        m.procs_busy.insert(0);

        let mut pulled_at = None;
        let handed_over_at = loop {
            let at = m.now;
            m.tick();
            if m.procs[0].stalled.is_none() {
                break at;
            }
            if pulled_at.is_none() && m.units[0].buffer.is_empty() {
                pulled_at = Some(at);
            } else if pulled_at.is_none() {
                let parked = m.procs[0].parked.expect("stalled with nothing else to do");
                assert_eq!(parked.state, ST_STALL);
            }
            m.skip_idle_cycles(Cycle::NEVER);
        };
        let pulled_at = pulled_at.expect("a stream pulled the buffered task");
        assert_eq!(handed_over_at, pulled_at.next());
        assert_eq!(m.units[0].buffer.front().unwrap().queued_at, handed_over_at);
        // Stalled from cycle 2 up to the hand-over, visited or not.
        let stalled = cycles_in(&m.procs[0].timeline, ST_STALL);
        assert_eq!(stalled, handed_over_at.get() - 2);
    }

    #[test]
    fn an_epoch_ends_on_its_boundary_even_mid_sleep() {
        // One shard stepped in 7-cycle epochs against the same shard run in
        // one go: a jump that would cross a barrier stops on it, and
        // nothing about the run depends on where the barriers fell.
        let g = erdos_renyi(60, 240, WeightMode::Uniform(1.0, 9.0), 5);
        let algo = Sssp::new(VertexId::new(0));
        let cfg = AcceleratorConfig::small_test();
        let shard = |cfg| {
            let (values, seeds) = initial_state(&algo, &g);
            let mut m = Machine::new_shard(cfg, &g, &algo, values, Partition::whole(&g), 0);
            m.seed_events(&seeds);
            m
        };

        let mut whole = shard(&cfg);
        whole.run_epoch(Cycle::NEVER).unwrap();
        assert!(whole.parked());

        let mut stepped = shard(&cfg);
        let mut end = Cycle::ZERO;
        let mut stopped_mid_sleep = 0;
        while !stepped.parked() {
            end += 7;
            stepped.run_epoch(end).unwrap();
            assert!(stepped.now <= end);
            if !stepped.parked() {
                assert_eq!(stepped.now, end, "an epoch ends on its boundary");
                let next = stepped.mem.next_event().min(stepped.scheduler_next_move());
                if all_parked(&stepped) && stepped.xbar.is_empty() && next > end {
                    stopped_mid_sleep += 1;
                }
            }
        }
        assert!(stopped_mid_sleep > 0, "no barrier fell inside a sleep");
        assert_eq!(stepped.ticks(), whole.ticks());
        let (stepped, whole) = (stepped.finish(), whole.finish());
        assert_eq!(
            format!("{:?}", stepped.report),
            format!("{:?}", whole.report)
        );
        assert_eq!(stepped.values, whole.values);
    }

    #[test]
    fn a_cycle_cap_inside_a_sleep_is_still_hit() {
        // SSSP from one root: after cycle 1 the whole machine waits for the
        // root's vertex line. A cap that falls in that wait is reported as
        // the cap, with the clock on it — not skipped over.
        let g = erdos_renyi(60, 240, WeightMode::Uniform(1.0, 9.0), 5);
        let algo = Sssp::new(VertexId::new(0));
        let mut cfg = AcceleratorConfig::small_test();
        let sleeping_until = {
            let (values, seeds) = initial_state(&algo, &g);
            let mut m = Machine::new(&cfg, &g, &algo, values);
            m.seed_events(&seeds);
            m.tick();
            m.tick();
            assert!(all_parked(&m));
            m.skip_idle_cycles(Cycle::NEVER);
            m.now.get()
        };
        assert!(sleeping_until > 20, "the wait ends in {sleeping_until}");

        cfg.max_cycles = 20;
        let (values, seeds) = initial_state(&algo, &g);
        let mut m = Machine::new(&cfg, &g, &algo, values);
        m.seed_events(&seeds);
        assert_eq!(m.run_until(Cycle::NEVER), Err(RunError::CycleLimit(20)));
        assert_eq!(m.now, Cycle::new(20));
        let err = GraphPulse::new(cfg).run(&g, &algo).unwrap_err();
        assert_eq!(err, RunError::CycleLimit(20));
    }
}

#[cfg(test)]
mod scheduling_tests {
    use super::*;
    use crate::SchedulingPolicy;
    use gp_algorithms::engine::run_sequential;
    use gp_algorithms::{max_abs_diff, PageRankDelta};
    use gp_graph::generators::{rmat, RmatConfig};

    #[test]
    fn occupancy_first_scheduling_is_functionally_identical() {
        let g = rmat(&RmatConfig::graph500(256, 2_048), 5);
        let algo = PageRankDelta::new(0.85, 1e-7);
        let golden = run_sequential(&algo, &g);

        let mut cfg = AcceleratorConfig::small_test();
        cfg.scheduling = SchedulingPolicy::OccupancyFirst;
        let out = GraphPulse::new(cfg).run(&g, &algo).unwrap();
        assert!(max_abs_diff(&out.values, &golden.values) < 1e-3);

        let rr = GraphPulse::new(AcceleratorConfig::small_test())
            .run(&g, &algo)
            .unwrap();
        assert!(max_abs_diff(&out.values, &rr.values) < 1e-6);
        // The policies take different paths: cycle counts may differ, but
        // the amount of useful work is conserved up to coalescing luck.
        assert!(out.report.events_processed > 0);
    }
}
