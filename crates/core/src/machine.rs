//! The assembled accelerator: scheduler, datapath wiring, slicing, and the
//! public [`GraphPulse`] entry point.

use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;

use gp_algorithms::engine::initial_state;
use gp_algorithms::DeltaAlgorithm;
use gp_graph::partition::Partition;
use gp_graph::{GraphView, VertexId};
use gp_mem::{line_base, MemRequest, MemorySystem, TrafficClass, LINE_BYTES};
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
        machine.run_to_completion()?;
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
    pending_mem: HashMap<u64, MemTarget<A::Delta>>,
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
    /// from O(events) to O(touched vertices) per epoch).
    outbox_index: Vec<HashMap<u32, usize>>,
    out_seq: u64,

    phase: Phase<A::Delta>,
    /// Bin visit order for the current round (identity under round-robin).
    bin_order: Vec<usize>,
    current_bin: usize,
    dispatch_rr: usize,
    round: u64,
    slice_activations: u64,
    progress_accum: f64,

    now: Cycle,
    current_round: RoundMetrics,
    rounds_log: Vec<RoundMetrics>,
    stages: StageAverages,
    activity: ActivityCounters,
    events_processed: u64,
    events_generated: u64,
    events_coalesced: u64,
    events_spilled: u64,
    /// Ticks actually executed (shard-mode diagnostics).
    ticks: u64,
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

        let bins = (0..cfg.queue.bins)
            .map(|_| Bin::new(&cfg.queue, cfg.bin_input_depth, cfg.coalescer_depth))
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
            pending_mem: HashMap::new(),
            bins,
            xbar: Crossbar::new(cfg.crossbar_ports, 4),
            procs,
            units,
            spill,
            spill_pending_bytes: 0,
            shard_mode,
            outbox,
            outbox_index,
            out_seq: 0,
            phase: Phase::Drain,
            bin_order: (0..cfg.queue.bins).collect(),
            current_bin: 0,
            dispatch_rr: 0,
            round: 0,
            slice_activations: 1,
            progress_accum: 0.0,
            now: Cycle::ZERO,
            current_round: RoundMetrics::default(),
            rounds_log: Vec::new(),
            stages: StageAverages::default(),
            activity: ActivityCounters::default(),
            events_processed: 0,
            events_generated: 0,
            events_coalesced: 0,
            events_spilled: 0,
            ticks: 0,
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

    fn run_to_completion(&mut self) -> Result<(), RunError> {
        while !matches!(self.phase, Phase::Done) {
            if self.now.get() >= self.cfg.max_cycles {
                return Err(RunError::CycleLimit(self.cfg.max_cycles));
            }
            self.tick();
        }
        Ok(())
    }

    // ---- shard-mode lifecycle (epoch-barrier parallel engine) ----

    /// Advances the shard until it parks (runs dry) or reaches the epoch
    /// boundary at `epoch_end`.
    pub(crate) fn run_epoch(&mut self, epoch_end: Cycle) -> Result<(), RunError> {
        debug_assert!(self.shard_mode);
        while !matches!(self.phase, Phase::Done) && self.now.get() < epoch_end.get() {
            if self.now.get() >= self.cfg.max_cycles {
                return Err(RunError::CycleLimit(self.cfg.max_cycles));
            }
            self.tick();
            self.ticks += 1;
        }
        Ok(())
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

    /// Ticks actually executed (the shard's share of the parallel work).
    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }

    fn tick(&mut self) {
        let now = self.now;
        self.mem.tick(now);
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
            match self.pending_mem.remove(&req.id().get()) {
                Some(MemTarget::VertexLine { proc, line }) => {
                    self.procs[proc].line_arrived(line);
                    self.activity.scratchpad_accesses += 1;
                }
                Some(MemTarget::EdgeLine { unit, line }) => {
                    self.units[unit].line_arrived(line);
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
            self.pending_mem.insert(id.get(), MemTarget::SpillWrite);
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
                self.pending_mem.insert(id.get(), MemTarget::SpillWrite);
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
        loop {
            if self.current_bin >= self.bins.len() {
                self.phase = Phase::Quiesce;
                return;
            }
            let bin_idx = self.bin_order[self.current_bin];
            match self.bins[bin_idx].peek_drain() {
                None => {
                    // Bin exhausted for this round; checking the next one
                    // costs no extra drain slot (priority encoder).
                    self.current_bin += 1;
                }
                Some((_, 0)) => return, // row busy in the coalescer: retry next cycle
                Some((row, count)) => {
                    let Some(target) = self.pick_processor(count) else {
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

    fn is_quiescent(&self) -> bool {
        self.pending_mem.is_empty()
            && self.mem.is_idle()
            && self.xbar.is_empty()
            && self.bins.iter().all(Bin::is_quiescent)
            && self.procs.iter().all(Processor::is_quiescent)
            && self.units.iter().all(GenUnit::is_quiescent)
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

        let round_progress = self.progress_accum;
        self.progress_accum = 0.0;
        self.round += 1;

        if let Some(threshold) = self.algo.global_threshold() {
            if round_progress < threshold && remaining > 0 {
                self.phase = Phase::Done;
                return;
            }
        }

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
            self.pending_mem
                .insert(id.get(), MemTarget::FillChunk { events });
        }
    }

    // ---- processors ----

    fn tick_processors(&mut self) {
        for p in 0..self.procs.len() {
            self.tick_processor(p);
        }
    }

    fn tick_processor(&mut self, p: usize) {
        let now = self.now;
        let mut state = ST_IDLE;

        // 1. Retry a stalled generation hand-off.
        if let Some(task) = self.procs[p].stalled.take() {
            if self.units[p].has_space() {
                let task = GenTask {
                    queued_at: now,
                    ..task
                };
                self.units[p].push_task(task);
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
                    .insert(id.get(), MemTarget::VertexLine { proc: p, line });
                self.procs[p].pending_lines.push(line);
            } else if !self.cfg.prefetch {
                // The demand flag was consumed; put it back for a retry.
                if let Some(t) = self.procs[p].input.front_mut() {
                    t.demand_issued = false;
                }
            }
        }

        // 5. Retry rejected vertex write-backs, and flush the
        //    write-combining buffer once the processor runs out of work.
        if let Some(&(line, bytes)) = self.procs[p].write_retry.front() {
            if self.mem.can_accept(line) {
                self.procs[p].write_retry.pop_front();
                self.issue_vertex_write(p, line, bytes);
            }
        }
        if self.procs[p].input.is_empty() && self.procs[p].pipeline.is_empty() {
            if let Some((line, bytes)) = self.procs[p].write_combine.take() {
                self.issue_vertex_write(p, line, bytes);
            }
        }

        // 6. State accounting (Fig. 14 left bars).
        if state == ST_IDLE && !self.procs[p].input.is_empty() {
            state = ST_VERTEX_READ; // waiting on vertex data
        }
        self.procs[p].timeline.add(state, 1);
    }

    /// Issues (or queues for retry) one combined vertex write-back burst.
    fn issue_vertex_write(&mut self, p: usize, line: u64, bytes: u32) {
        if self.mem.can_accept(line) {
            let req = MemRequest::write(line, bytes, TrafficClass::VertexWrite);
            let id = self.mem.request(self.now, req).expect("can_accept checked");
            self.pending_mem.insert(id.get(), MemTarget::VertexWriteAck);
        } else {
            self.procs[p].write_retry.push_back((line, bytes));
        }
    }

    fn apply_op(&mut self, p: usize, op: ApplyOp<A::Delta>) {
        let now = self.now;
        let v = op.event.target;
        let old = self.values[v.index()];
        let new = self.algo.reduce(old, op.event.delta);
        self.values[v.index()] = new;
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
        self.progress_accum += self.algo.progress(old, new);

        // Write the updated property back through the write-combining
        // buffer: block scheduling processes consecutive vertices
        // back-to-back, so write-backs merge into sequential line writes
        // (Fig. 5 "SEQ WRITE").
        let line = vertex_line(self.vertex_base, self.cfg.vertex_bytes, v.get());
        if let Some((flush_line, bytes)) = self.procs[p].combine_write(line, self.cfg.vertex_bytes)
        {
            self.issue_vertex_write(p, flush_line, bytes);
        }

        // Local termination check (Algorithm 1 line 8).
        if let Some(basis) = self.algo.propagation_basis(old, new) {
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
                    self.units[p].push_task(task);
                } else {
                    self.procs[p].stalled = Some(task);
                }
            }
        }
    }

    // ---- generation ----

    fn tick_generation(&mut self) {
        for u in 0..self.units.len() {
            for s in 0..self.units[u].streams.len() {
                self.tick_stream(u, s);
            }
        }
    }

    fn tick_stream(&mut self, u: usize, s: usize) {
        let now = self.now;

        // Pull a task if idle.
        if self.units[u].streams[s].active.is_none() && self.units[u].streams[s].pending.is_none() {
            if let Some(task) = self.units[u].buffer.pop_front() {
                self.stages.gen_buffer.record((now - task.queued_at) as f64);
                self.units[u].streams[s].active = Some(ActiveGen {
                    task,
                    next_edge: 0,
                    edge_wait: 0,
                    gen_cycles: 0,
                });
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
                state = GT_GENERATE;
            } else {
                self.units[u].streams[s].pending = Some(flit);
                state = GT_STALL;
            }
            self.units[u].streams[s].timeline.add(state, 1);
            return;
        }

        let Some(active) = &self.units[u].streams[s].active else {
            self.units[u].streams[s].timeline.add(GT_IDLE, 1);
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
            self.units[u].streams[s].timeline.add(GT_IDLE, 1);
            return;
        }

        // Edge prefetch: keep up to N lines ahead in flight (§V).
        self.issue_edge_prefetch(u, vertex, next_edge, degree);

        // Consume one edge per cycle if its line is resident.
        let addr = self.edge_addr(vertex, next_edge);
        let line = line_base(addr);
        let state;
        if self.units[u].cache.contains(line) {
            self.units[u].cache.probe(line); // counts the hit, updates LRU
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
        }
        self.units[u].streams[s].timeline.add(state, 1);
    }

    fn issue_edge_prefetch(&mut self, u: usize, vertex: VertexId, next_edge: u32, degree: u32) {
        if next_edge >= degree {
            return;
        }
        let first_line = line_base(self.edge_addr(vertex, next_edge));
        let last_line = line_base(self.edge_addr(vertex, degree - 1));
        let window_end = (first_line
            + (self.cfg.edge_prefetch_depth.saturating_sub(1)) * LINE_BYTES)
            .min(last_line);
        let mut line = first_line;
        while line <= window_end {
            if !self.units[u].cache.contains(line) && !self.units[u].pending_lines.contains(&line) {
                if self.mem.can_accept(line) {
                    self.units[u].cache.probe(line); // counts the miss
                    let list_end = self.edge_addr(vertex, degree - 1) + u64::from(self.edge_bytes);
                    let useful = (list_end.min(line + LINE_BYTES)
                        - line.max(self.edge_addr(vertex, 0)))
                    .min(LINE_BYTES) as u32;
                    let req = MemRequest::read(line, LINE_BYTES as u32, TrafficClass::EdgeRead)
                        .with_useful_bytes(useful.max(1).min(LINE_BYTES as u32));
                    let id = self.mem.request(self.now, req).expect("can_accept checked");
                    self.pending_mem
                        .insert(id.get(), MemTarget::EdgeLine { unit: u, line });
                    self.units[u].pending_lines.push(line);
                }
                return; // at most one issue (or blocked wait) per cycle
            }
            line += LINE_BYTES;
        }
    }

    // ---- network & bins ----

    fn tick_network(&mut self) {
        let accepts: Vec<bool> = self.bins.iter().map(Bin::can_accept).collect();
        let now = self.now.get();
        let Machine {
            xbar,
            bins,
            spill,
            events_spilled,
            spill_pending_bytes,
            cfg,
            algo,
            shard_mode,
            outbox,
            outbox_index,
            out_seq,
            ..
        } = self;
        xbar.tick(&accepts, |flit| match flit.route {
            Route::Bin { bin, row, col } => {
                bins[bin].accept(SlotAddr { bin, row, col }, flit.event);
            }
            Route::Spill { slice } => {
                *events_spilled += 1;
                if *shard_mode {
                    match outbox_index[slice].entry(flit.event.target.get()) {
                        std::collections::hash_map::Entry::Occupied(at) => {
                            let existing = &mut outbox[slice][*at.get()].event;
                            existing.delta = algo.coalesce(existing.delta, flit.event.delta);
                            existing.meta = existing.meta.merge(flit.event.meta);
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
            }
        });
    }

    fn tick_bins(&mut self) {
        for bin in &mut self.bins {
            if let Some(outcome) = bin.tick_insert(self.now, self.algo) {
                self.activity.queue_reads += 1; // slot probe
                self.activity.queue_writes += 1; // slot write
                if outcome == InsertOutcome::Coalesced {
                    self.events_coalesced += 1;
                    self.current_round.coalesced_away += 1;
                    self.activity.coalesce_ops += 1;
                }
            }
        }
    }

    // ---- teardown ----

    /// Tears the machine down into its typed vertex values (all of them,
    /// in shard mode too) plus the execution report.
    pub(crate) fn finish(self) -> Outcome<A::Value> {
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

    #[test]
    fn report_timelines_cover_all_cycles() {
        let g = erdos_renyi(100, 400, WeightMode::Unweighted, 2);
        let algo = PageRankDelta::new(0.85, 1e-5);
        let cfg = AcceleratorConfig::small_test();
        let procs = cfg.processors as u64;
        let streams = cfg.total_streams() as u64;
        let out = GraphPulse::new(cfg).run(&g, &algo).unwrap();
        assert_eq!(out.report.proc_timeline.total(), out.report.cycles * procs);
        assert_eq!(out.report.gen_timeline.total(), out.report.cycles * streams);
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
