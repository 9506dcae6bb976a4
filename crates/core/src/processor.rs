//! Event processors (§IV-E, optimized per §V).
//!
//! A processor owns an input buffer of scheduled events, a vertex-property
//! scratchpad filled by the block prefetcher, an apply pipeline, and a
//! small retry queue for vertex write-backs. The heavier orchestration
//! (memory issue, functional value updates, hand-off to generation) lives
//! in [`machine`](crate::machine) because it needs the shared memory system
//! and the algorithm; this module keeps the per-processor state machine and
//! its local invariants.
//!
//! A processor whose tick changed nothing is parked by the machine (see
//! [`wake`](crate::wake)); [`Processor::parked`] carries the span its
//! timeline still owes, settled in bulk when the processor is next visited.

use std::collections::VecDeque;

use gp_mem::{line_base, Scratchpad};
use gp_sim::stats::StateTimeline;
use gp_sim::{Cycle, Pipeline};

use crate::generation::GenTask;
use crate::metrics::PROC_STATES;
use crate::wake::Parked;
use crate::Event;

/// Index of the processor states in the Fig. 14 timeline.
pub(crate) const ST_VERTEX_READ: usize = 0;
pub(crate) const ST_PROCESS: usize = 1;
pub(crate) const ST_STALL: usize = 2;
pub(crate) const ST_IDLE: usize = 3;

/// A scheduled event waiting in the processor's input buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProcToken<D> {
    pub event: Event<D>,
    /// Cycle the event entered the input buffer.
    pub arrived: Cycle,
    /// Line address of the target vertex's property.
    pub line: u64,
    /// Whether a demand read has already been issued (baseline mode).
    pub demand_issued: bool,
}

/// An apply operation travelling through the processor pipeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ApplyOp<D> {
    pub event: Event<D>,
    /// Cycle the apply was issued (vertex data became available).
    pub issued: Cycle,
}

/// One event processor.
#[derive(Debug)]
pub(crate) struct Processor<D> {
    input: VecDeque<ProcToken<D>>,
    input_cap: usize,
    scratch: Scratchpad,
    /// Vertex lines requested from memory but not yet arrived.
    pending_lines: Vec<u64>,
    /// How many leading tokens of `input` [`Processor::next_prefetch`] has
    /// found covered — their line resident or pending. A buffered token's
    /// line only ever becomes more covered: a pending line arrives into the
    /// scratchpad, [`Processor::pop_ready`] releases a line only when no
    /// buffered token shares it, and [`Processor::reset_for_swap`] runs
    /// only when the buffer is empty. So the prefix stays covered, and the
    /// next search starts where the last one stopped.
    covered_prefix: usize,
    pub pipeline: Pipeline<ApplyOp<D>>,
    /// A generation task that found the generation buffer full.
    pub stalled: Option<GenTask<D>>,
    /// Write-combining buffer: updated vertices in a drained block are
    /// consecutive, so their write-backs merge into sequential line writes
    /// (the paper's Fig. 5 "SEQ WRITE" behavior). `(line, bytes)`.
    pub write_combine: Option<(u64, u32)>,
    /// Combined vertex write-backs rejected by the memory system:
    /// `(line, bytes)` pairs awaiting retry.
    pub write_retry: VecDeque<(u64, u32)>,
    pub timeline: StateTimeline,
    /// Set while the machine is not visiting this processor: the state
    /// every skipped cycle would have recorded, and since when.
    pub parked: Option<Parked>,
}

impl<D: Copy> Processor<D> {
    pub(crate) fn new(input_cap: usize, scratchpad_lines: usize, process_latency: u64) -> Self {
        Processor {
            input: VecDeque::with_capacity(input_cap),
            input_cap,
            scratch: Scratchpad::new(scratchpad_lines),
            pending_lines: Vec::new(),
            covered_prefix: 0,
            pipeline: Pipeline::new(process_latency),
            stalled: None,
            write_combine: None,
            write_retry: VecDeque::new(),
            timeline: StateTimeline::new(&PROC_STATES),
            // Nothing to do until the scheduler hands over a first block.
            parked: Some(Parked {
                since: Cycle::ZERO,
                state: ST_IDLE,
            }),
        }
    }

    /// Books the cycles slept before `now` into the timeline; the span a
    /// still-parked processor owes restarts at `resume`.
    pub(crate) fn settle(&mut self, now: Cycle, resume: Cycle) {
        if let Some(parked) = &mut self.parked {
            self.timeline.add(parked.state, parked.slept(now));
            parked.since = resume;
        }
    }

    /// Free input-buffer slots.
    pub(crate) fn free_input(&self) -> usize {
        self.input_cap - self.input.len()
    }

    /// Whether the input buffer holds no event.
    pub(crate) fn input_is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// Accepts a drained event block from the scheduler.
    ///
    /// # Panics
    ///
    /// Panics on overflow; the scheduler checks [`Processor::free_input`].
    pub(crate) fn push_token(&mut self, token: ProcToken<D>) {
        assert!(self.input.len() < self.input_cap, "input buffer overflow");
        self.input.push_back(token);
    }

    /// A read of vertex line `line` was issued to memory.
    pub(crate) fn line_requested(&mut self, line: u64) {
        self.pending_lines.push(line);
    }

    /// A requested vertex line arrived from memory.
    pub(crate) fn line_arrived(&mut self, line: u64) {
        self.pending_lines.retain(|&l| l != line);
        let inserted = self.scratch.insert(line);
        debug_assert!(inserted, "scratchpad overflow on fill");
    }

    /// Whether the head event's vertex data is resident.
    pub(crate) fn head_ready(&self) -> bool {
        self.input
            .front()
            .is_some_and(|t| self.scratch.contains(t.line))
    }

    /// Pops the head token once its data is ready, releasing its scratchpad
    /// line when no other buffered event shares it.
    pub(crate) fn pop_ready(&mut self) -> Option<ProcToken<D>> {
        if !self.head_ready() {
            return None;
        }
        let token = self.input.pop_front().expect("head exists");
        if !self.input.iter().any(|t| t.line == token.line) {
            self.scratch.take(token.line);
        }
        // The head was ready, so covered: if the prefix held it, the prefix
        // is one token shorter now.
        self.covered_prefix = self.covered_prefix.saturating_sub(1);
        Some(token)
    }

    /// The next vertex line the prefetcher should request: the first
    /// buffered event whose line is neither resident nor pending, provided
    /// the scratchpad can still track it. Returns `(line, events_on_line)`.
    /// Searches on from the covered prefix of the buffer only.
    pub(crate) fn next_prefetch(&mut self) -> Option<(u64, u32)> {
        if self.scratch.len() + self.pending_lines.len() >= self.scratch.capacity() {
            return None;
        }
        while let Some(t) = self.input.get(self.covered_prefix) {
            // A drained block is consecutive vertices, so runs of tokens
            // share a line: one lookup per run, not per token.
            let run = self.covered_prefix > 0 && self.input[self.covered_prefix - 1].line == t.line;
            if !run && !self.scratch.contains(t.line) && !self.pending_lines.contains(&t.line) {
                // Coverage is per line: no token of the prefix has this one.
                let rest = self.input.range(self.covered_prefix..);
                let count = rest.filter(|x| x.line == t.line).count() as u32;
                return Some((t.line, count));
            }
            self.covered_prefix += 1;
        }
        None
    }

    /// The head token's line if a demand read is still needed (baseline
    /// mode, no prefetcher).
    pub(crate) fn next_demand(&mut self) -> Option<u64> {
        let t = self.input.front_mut()?;
        if t.demand_issued || self.scratch.contains(t.line) {
            return None;
        }
        t.demand_issued = true;
        Some(t.line)
    }

    /// The head's demand read was turned away by memory: the next
    /// [`Processor::next_demand`] asks again.
    pub(crate) fn demand_refused(&mut self) {
        if let Some(t) = self.input.front_mut() {
            t.demand_issued = false;
        }
    }

    /// Records a vertex write-back in the write-combining buffer; returns a
    /// completed `(line, bytes)` burst to issue when the line changes.
    pub(crate) fn combine_write(&mut self, line: u64, bytes: u32) -> Option<(u64, u32)> {
        match self.write_combine {
            Some((cur, acc)) if cur == line => {
                self.write_combine = Some((cur, (acc + bytes).min(crate::machine::LINE_BYTES_U32)));
                None
            }
            other => {
                self.write_combine = Some((line, bytes));
                other
            }
        }
    }

    /// Whether the processor holds no work at all.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.input.is_empty()
            && self.pipeline.is_empty()
            && self.stalled.is_none()
            && self.pending_lines.is_empty()
            && self.write_retry.is_empty()
            && self.write_combine.is_none()
    }

    /// Resets transient state for a slice swap.
    pub(crate) fn reset_for_swap(&mut self) {
        debug_assert!(self.is_quiescent(), "swap while busy");
        self.scratch.clear();
        self.covered_prefix = 0;
    }
}

/// Line address of vertex `v`'s property record.
pub(crate) fn vertex_line(vertex_base: u64, vertex_bytes: u32, v: u32) -> u64 {
    line_base(vertex_base + u64::from(v) * u64::from(vertex_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::VertexId;

    fn token(v: u32, line: u64) -> ProcToken<f64> {
        ProcToken {
            event: Event::new(VertexId::new(v), 1.0, 0),
            arrived: Cycle::ZERO,
            line,
            demand_issued: false,
        }
    }

    #[test]
    fn head_waits_for_its_line() {
        let mut p: Processor<f64> = Processor::new(4, 4, 2);
        p.push_token(token(1, 64));
        assert!(!p.head_ready());
        assert!(p.pop_ready().is_none());
        p.line_arrived(64);
        assert!(p.head_ready());
        let t = p.pop_ready().unwrap();
        assert_eq!(t.event.target, VertexId::new(1));
        assert!(!p.scratch.contains(64), "line released after last user");
    }

    #[test]
    fn shared_line_released_only_after_last_user() {
        let mut p: Processor<f64> = Processor::new(4, 4, 2);
        p.push_token(token(1, 64));
        p.push_token(token(2, 64));
        p.line_arrived(64);
        p.pop_ready().unwrap();
        assert!(p.scratch.contains(64), "second event still needs the line");
        p.pop_ready().unwrap();
        assert!(!p.scratch.contains(64));
    }

    #[test]
    fn prefetch_counts_events_per_line_and_respects_capacity() {
        let mut p: Processor<f64> = Processor::new(8, 2, 2);
        p.push_token(token(1, 0));
        p.push_token(token(2, 0));
        p.push_token(token(3, 64));
        p.push_token(token(4, 128));
        assert_eq!(p.next_prefetch(), Some((0, 2)));
        p.line_requested(0);
        assert_eq!(p.next_prefetch(), Some((64, 1)));
        p.line_requested(64);
        // Scratchpad capacity (2) fully committed to pending lines.
        assert_eq!(p.next_prefetch(), None);
    }

    #[test]
    fn prefetch_answer_is_rescanned_after_each_thing_it_reads_changes() {
        // The answer must follow every change to the input buffer, the
        // scratchpad or the pending lines.
        let mut p: Processor<f64> = Processor::new(8, 2, 2);
        assert_eq!(p.next_prefetch(), None);
        p.push_token(token(1, 0)); // input changed
        assert_eq!(p.next_prefetch(), Some((0, 1)));
        assert_eq!(p.next_prefetch(), Some((0, 1)), "refused: same answer");
        p.push_token(token(2, 0));
        assert_eq!(p.next_prefetch(), Some((0, 2)));
        p.line_requested(0); // pending changed
        assert_eq!(p.next_prefetch(), None);
        p.push_token(token(3, 64));
        p.push_token(token(4, 128));
        assert_eq!(p.next_prefetch(), Some((64, 1)));
        p.line_requested(64);
        assert_eq!(p.next_prefetch(), None, "scratchpad fully committed");
        p.line_arrived(0); // pending -> scratchpad: still committed
        assert_eq!(p.next_prefetch(), None);
        p.pop_ready().unwrap();
        assert_eq!(p.next_prefetch(), None, "line 0 still has a user");
        p.pop_ready().unwrap(); // releases line 0: room for line 128
        assert_eq!(p.next_prefetch(), Some((128, 1)));
    }

    /// What `next_prefetch` answered before the cursor: a scan of the whole
    /// buffer for the first line neither resident nor pending.
    fn rescan(p: &Processor<f64>) -> Option<(u64, u32)> {
        if p.scratch.len() + p.pending_lines.len() >= p.scratch.capacity() {
            return None;
        }
        let covered = |line: u64| p.scratch.contains(line) || p.pending_lines.contains(&line);
        let first = p.input.iter().find(|t| !covered(t.line))?;
        let count = p.input.iter().filter(|t| t.line == first.line).count();
        Some((first.line, count as u32))
    }

    #[test]
    fn the_cursor_answers_what_a_full_rescan_does() {
        use gp_graph::rng::{Rng, StdRng};
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let scratchpad = rng.gen_range(1..6usize);
            let mut p: Processor<f64> = Processor::new(rng.gen_range(4..24), scratchpad, 2);
            let mut v = 0;
            for step in 0..3_000 {
                match rng.gen_range(0..10u32) {
                    // A drained block: a run of consecutive vertices, some
                    // sharing a line, some lines already buffered.
                    0..=2 => {
                        let mut line = rng.gen_range(0..12u64) * 64;
                        for _ in 0..rng.gen_range(1..6usize).min(p.free_input()) {
                            p.push_token(token(v, line));
                            v += 1;
                            if rng.gen_bool(0.4) {
                                line += 64;
                            }
                        }
                    }
                    3..=5 => {
                        if let Some((line, _)) = p.next_prefetch() {
                            p.line_requested(line);
                        }
                    }
                    6 | 7 if !p.pending_lines.is_empty() => {
                        let at = rng.gen_range(0..p.pending_lines.len());
                        p.line_arrived(p.pending_lines[at]);
                    }
                    _ => {
                        p.pop_ready();
                        if p.is_quiescent() && rng.gen_bool(0.2) {
                            p.reset_for_swap();
                        }
                    }
                }
                let want = rescan(&p);
                assert_eq!(p.next_prefetch(), want, "seed {seed}, step {step}");
                assert!(p.covered_prefix <= p.input.len());
            }
        }
    }

    #[test]
    fn a_parked_span_is_settled_in_bulk() {
        let mut p: Processor<f64> = Processor::new(4, 4, 2);
        // Parked idle since cycle 0; settle twice, resuming where told.
        p.settle(Cycle::new(10), Cycle::new(10));
        p.settle(Cycle::new(25), Cycle::new(40)); // 40: the machine itself sat out 25..40
        p.settle(Cycle::new(42), Cycle::new(42));
        assert_eq!(p.timeline.total(), 10 + 15 + 2);
        p.parked = None;
        p.settle(Cycle::new(100), Cycle::new(100));
        assert_eq!(p.timeline.total(), 27, "an awake processor owes nothing");
    }

    #[test]
    fn demand_issue_fires_once() {
        let mut p: Processor<f64> = Processor::new(4, 4, 2);
        p.push_token(token(1, 64));
        assert_eq!(p.next_demand(), Some(64));
        assert_eq!(p.next_demand(), None);
        p.line_arrived(64);
        assert_eq!(p.next_demand(), None);
    }

    #[test]
    fn quiescence_tracks_all_buffers() {
        let mut p: Processor<f64> = Processor::new(4, 4, 2);
        assert!(p.is_quiescent());
        p.push_token(token(1, 64));
        assert!(!p.is_quiescent());
        p.line_arrived(64);
        p.pop_ready().unwrap();
        assert!(p.is_quiescent());
        p.write_retry.push_back((8, 8));
        assert!(!p.is_quiescent());
        p.write_retry.pop_front();
        assert!(p.is_quiescent());
        assert_eq!(p.combine_write(0, 8), None);
        assert_eq!(p.combine_write(0, 8), None); // same line merges
        assert_eq!(p.combine_write(64, 8), Some((0, 16))); // line change flushes
        assert!(!p.is_quiescent());
    }

    #[test]
    fn vertex_line_math() {
        assert_eq!(vertex_line(0, 8, 0), 0);
        assert_eq!(vertex_line(0, 8, 7), 0);
        assert_eq!(vertex_line(0, 8, 8), 64);
        assert_eq!(vertex_line(128, 8, 0), 128);
    }
}
