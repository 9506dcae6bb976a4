//! Execution metrics backing every figure of the evaluation.

use gp_algorithms::engine::EventCounts;
use gp_mem::MemStats;
use gp_sim::stats::{Average, StateTimeline};

use crate::{AcceleratorConfig, EnergyReport};

/// Lookahead-degree buckets exactly as Fig. 8 of the paper:
/// `0, <100, <200, <300, <400, >400`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LookaheadBuckets {
    /// Events with zero lookahead (never coalesced across iterations).
    pub zero: u64,
    /// Lookahead in `1..100`.
    pub lt100: u64,
    /// Lookahead in `100..200`.
    pub lt200: u64,
    /// Lookahead in `200..300`.
    pub lt300: u64,
    /// Lookahead in `300..400`.
    pub lt400: u64,
    /// Lookahead `>= 400`.
    pub ge400: u64,
}

impl LookaheadBuckets {
    /// Records one event's lookahead.
    pub fn record(&mut self, lookahead: u32) {
        match lookahead {
            0 => self.zero += 1,
            1..=99 => self.lt100 += 1,
            100..=199 => self.lt200 += 1,
            200..=299 => self.lt300 += 1,
            300..=399 => self.lt400 += 1,
            _ => self.ge400 += 1,
        }
    }

    /// Accumulates another distribution's counts.
    pub fn merge(&mut self, other: &LookaheadBuckets) {
        self.zero += other.zero;
        self.lt100 += other.lt100;
        self.lt200 += other.lt200;
        self.lt300 += other.lt300;
        self.lt400 += other.lt400;
        self.ge400 += other.ge400;
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.zero + self.lt100 + self.lt200 + self.lt300 + self.lt400 + self.ge400
    }

    /// Rows as `(label, count)` pairs in Fig. 8 order.
    pub fn rows(&self) -> [(&'static str, u64); 6] {
        [
            ("0", self.zero),
            ("<100", self.lt100),
            ("<200", self.lt200),
            ("<300", self.lt300),
            ("<400", self.lt400),
            (">400", self.ge400),
        ]
    }
}

/// Per-round counters (Figs. 4 and 8).
#[derive(Debug, Default, Clone)]
pub struct RoundMetrics {
    /// Scheduler round number (one pass over all bins).
    pub round: u64,
    /// Events generated during the round, before coalescing.
    pub produced: u64,
    /// Events merged into an existing queue slot, or in shard mode into a
    /// pending outbox entry, during the round.
    pub coalesced_away: u64,
    /// Events drained from the queue (issued to processors).
    pub drained: u64,
    /// Queue occupancy (pending unique events) at the end of the round.
    pub remaining: u64,
    /// Lookahead distribution of the events drained this round.
    pub lookahead: LookaheadBuckets,
}

/// Mean cycles an event spends in each execution stage, in the
/// chronological order of the paper's Fig. 13.
#[derive(Debug, Default, Clone)]
pub struct StageAverages {
    /// Waiting in the processor input buffer for vertex data (Vtx Mem).
    pub vtx_mem: Average,
    /// In the apply pipeline (Process).
    pub process: Average,
    /// Waiting in the generation buffer for a free stream (Gen-Buffer).
    pub gen_buffer: Average,
    /// Stalled on edge-list memory during generation (Edge Mem).
    pub edge_mem: Average,
    /// Actively producing/routing outgoing events (Generate).
    pub generate: Average,
}

impl StageAverages {
    /// Accumulates another machine's stage samples (parallel-run merge).
    pub fn merge(&mut self, other: &StageAverages) {
        self.vtx_mem.merge(&other.vtx_mem);
        self.process.merge(&other.process);
        self.gen_buffer.merge(&other.gen_buffer);
        self.edge_mem.merge(&other.edge_mem);
        self.generate.merge(&other.generate);
    }

    /// `(label, mean_cycles)` rows, chronological (bottom-to-top in Fig. 13).
    pub fn rows(&self) -> [(&'static str, f64); 5] {
        [
            ("Vtx Mem", self.vtx_mem.mean()),
            ("Process", self.process.mean()),
            ("Gen-Buffer", self.gen_buffer.mean()),
            ("Edge Mem", self.edge_mem.mean()),
            ("Generate", self.generate.mean()),
        ]
    }
}

/// Names of processor states tracked for Fig. 14 (left bars).
pub const PROC_STATES: [&str; 4] = ["vertex-read", "process", "stalling", "idle"];
/// Names of generation-stream states tracked for Fig. 14 (right bars).
pub const GEN_STATES: [&str; 4] = ["edge-read", "generate", "stalling", "idle"];

/// Everything measured during one accelerator run.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Simulated wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Graph slices the run used (1 = no partitioning).
    pub slices: u64,
    /// Slice activations (swap-ins), including the first.
    pub slice_activations: u64,
    /// Events processed (drained and applied).
    pub events_processed: u64,
    /// Events generated, before coalescing.
    pub events_generated: u64,
    /// Events eliminated by coalescing (in the queue, or in a shard's
    /// outbox).
    pub events_coalesced: u64,
    /// Events spilled off-chip to other slices.
    pub events_spilled: u64,
    /// Per-round counters (Figs. 4, 8).
    pub rounds_log: Vec<RoundMetrics>,
    /// Per-event stage latencies (Fig. 13).
    pub stages: StageAverages,
    /// Aggregated processor state timeline (Fig. 14 left).
    pub proc_timeline: StateTimeline,
    /// Aggregated generation-stream state timeline (Fig. 14 right).
    pub gen_timeline: StateTimeline,
    /// Off-chip memory statistics (Figs. 11, 12).
    pub memory: MemStats,
    /// Edge cache hits/misses across generation units.
    pub edge_cache_hits: u64,
    /// Edge cache misses across generation units.
    pub edge_cache_misses: u64,
    /// Energy/area estimate (Table V).
    pub energy: EnergyReport,
}

impl ExecutionReport {
    /// Folds another shard's report into this one (shard-parallel merge):
    /// the clock is the slowest shard's and the round count the deepest
    /// shard's, counters and samples add, the per-round logs add by round
    /// index so aggregate invariants (e.g. lookahead totals) keep holding,
    /// and `seconds` and `energy` are derived again from the merged clock
    /// and activity. `slices` is already the shard count in every shard's
    /// report.
    pub(crate) fn merge(&mut self, other: ExecutionReport, cfg: &AcceleratorConfig) {
        self.cycles = self.cycles.max(other.cycles);
        self.rounds = self.rounds.max(other.rounds);
        self.slice_activations += other.slice_activations;
        self.events_processed += other.events_processed;
        self.events_generated += other.events_generated;
        self.events_coalesced += other.events_coalesced;
        self.events_spilled += other.events_spilled;
        if self.rounds_log.len() < other.rounds_log.len() {
            self.rounds_log
                .resize_with(other.rounds_log.len(), RoundMetrics::default);
        }
        for (i, (dst, r)) in self.rounds_log.iter_mut().zip(other.rounds_log).enumerate() {
            dst.round = i as u64;
            dst.produced += r.produced;
            dst.coalesced_away += r.coalesced_away;
            dst.drained += r.drained;
            dst.remaining += r.remaining;
            dst.lookahead.merge(&r.lookahead);
        }
        self.stages.merge(&other.stages);
        self.proc_timeline.merge(&other.proc_timeline);
        self.gen_timeline.merge(&other.gen_timeline);
        self.memory.merge(&other.memory);
        self.edge_cache_hits += other.edge_cache_hits;
        self.edge_cache_misses += other.edge_cache_misses;
        let mut activity = self.energy.activity;
        activity.merge(&other.energy.activity);
        self.energy = EnergyReport::for_run(cfg, activity, self.cycles);
        self.seconds = self.energy.seconds;
    }

    /// Fraction of generated events that were eliminated by coalescing
    /// (the paper reports >90% for PageRank on LiveJournal): in the queue,
    /// and in a shard's outbox on a merged shard-parallel report.
    pub fn coalesce_rate(&self) -> f64 {
        if self.events_generated == 0 {
            0.0
        } else {
            self.events_coalesced as f64 / self.events_generated as f64
        }
    }

    /// Event-conservation check: [`EventCounts::check`] of the run's
    /// counters, `generated == processed + coalesced` exactly. It holds for
    /// every run — sequential, sliced (spilled events re-enter the queue on
    /// a later slice pass) and merged shard-parallel (a cross-shard event
    /// merged into a pending outbox entry counts as coalesced).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated balance equation.
    pub fn check_event_conservation(&self) -> Result<(), String> {
        EventCounts {
            generated: self.events_generated,
            coalesced: self.events_coalesced,
            processed: self.events_processed,
        }
        .check()
    }

    /// Aggregate lookahead distribution over all rounds.
    pub fn total_lookahead(&self) -> LookaheadBuckets {
        let mut total = LookaheadBuckets::default();
        for r in &self.rounds_log {
            total.merge(&r.lookahead);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(generated: u64, processed: u64, coalesced: u64) -> ExecutionReport {
        ExecutionReport {
            cycles: 0,
            seconds: 0.0,
            rounds: 0,
            slices: 1,
            slice_activations: 1,
            events_processed: processed,
            events_generated: generated,
            events_coalesced: coalesced,
            events_spilled: 0,
            rounds_log: Vec::new(),
            stages: StageAverages::default(),
            proc_timeline: StateTimeline::new(&PROC_STATES),
            gen_timeline: StateTimeline::new(&GEN_STATES),
            memory: MemStats::default(),
            edge_cache_hits: 0,
            edge_cache_misses: 0,
            energy: EnergyReport::from_activity(
                &crate::EnergyModel::paper(),
                &crate::energy::ActivityCounters::default(),
                1.0,
                1,
                1,
            ),
        }
    }

    #[test]
    fn conservation_accepts_balanced_counters() {
        report_with(10, 6, 4).check_event_conservation().unwrap();
    }

    #[test]
    fn strict_conservation_fires_on_a_deficit() {
        // A dropped event: generated but neither processed nor coalesced.
        let err = report_with(10, 5, 4)
            .check_event_conservation()
            .unwrap_err();
        assert!(err.contains("event conservation violated"), "{err}");
        assert!(err.contains("deficit 1"), "{err}");
        assert!(err.contains("generated 10"), "{err}");
    }

    #[test]
    fn conservation_fires_on_surplus_in_both_modes() {
        // A duplicated event: absorbed without ever being generated.
        let err = report_with(10, 7, 4)
            .check_event_conservation()
            .unwrap_err();
        assert!(err.contains("absorbed more events than generated"), "{err}");
        assert!(
            err.contains("processed 7 + coalesced 4 > generated 10"),
            "{err}"
        );
    }

    #[test]
    fn lookahead_bucket_boundaries_match_fig8() {
        let mut b = LookaheadBuckets::default();
        for v in [0, 1, 99, 100, 199, 200, 299, 300, 399, 400, 10_000] {
            b.record(v);
        }
        assert_eq!(b.zero, 1);
        assert_eq!(b.lt100, 2);
        assert_eq!(b.lt200, 2);
        assert_eq!(b.lt300, 2);
        assert_eq!(b.lt400, 2);
        assert_eq!(b.ge400, 2);
        assert_eq!(b.total(), 11);
    }

    #[test]
    fn bucket_rows_are_ordered() {
        let b = LookaheadBuckets::default();
        let labels: Vec<_> = b.rows().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["0", "<100", "<200", "<300", "<400", ">400"]);
    }

    #[test]
    fn stage_rows_follow_fig13_order() {
        let s = StageAverages::default();
        let labels: Vec<_> = s.rows().iter().map(|(l, _)| *l).collect();
        assert_eq!(
            labels,
            vec!["Vtx Mem", "Process", "Gen-Buffer", "Edge Mem", "Generate"]
        );
    }
}
