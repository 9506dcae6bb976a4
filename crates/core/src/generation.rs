//! Generation units and streams (§V, Fig. 9).
//!
//! After an event is processed, update events must be generated for the
//! vertex's whole out-edge set — the expensive step that used to stall the
//! processors. The paper decouples it: each processor feeds a *generation
//! unit* holding several *streams* that share an edge cache; each stream
//! walks one vertex's edge list at one edge per cycle, with a degree-hinted
//! N-block prefetcher keeping the cache warm.
//!
//! A stream with no task, or one waiting for an edge line with nothing left
//! to request, is parked by the machine (see [`wake`](crate::wake)):
//! [`Stream::parked`] carries the span its timeline — and, while it waits
//! for a line, its task's `edge_wait` — still owes.

use std::collections::VecDeque;

use gp_graph::VertexId;
use gp_mem::{Cache, CacheConfig};
use gp_sim::stats::StateTimeline;
use gp_sim::Cycle;

use crate::metrics::GEN_STATES;
use crate::network::Flit;
use crate::wake::Parked;

/// Index of the generation states in the Fig. 14 timeline.
pub(crate) const GT_EDGE_READ: usize = 0;
pub(crate) const GT_GENERATE: usize = 1;
pub(crate) const GT_STALL: usize = 2;
pub(crate) const GT_IDLE: usize = 3;

/// A processed vertex waiting for event generation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenTask<D> {
    pub vertex: VertexId,
    /// The propagation basis Δu produced by the reduce step.
    pub basis: D,
    pub degree: u32,
    /// Virtual-iteration depth of the events this task will emit.
    pub depth: u32,
    /// Cycle the task entered the generation buffer.
    pub queued_at: Cycle,
}

/// A stream actively walking one vertex's edge list.
#[derive(Debug)]
pub(crate) struct ActiveGen<D> {
    pub task: GenTask<D>,
    pub next_edge: u32,
    /// Cycles stalled waiting for edge lines (Fig. 13 "Edge Mem").
    pub edge_wait: u64,
    /// Cycles spent emitting/routing events (Fig. 13 "Generate").
    pub gen_cycles: u64,
}

/// One generation stream.
#[derive(Debug)]
pub(crate) struct Stream<D> {
    pub active: Option<ActiveGen<D>>,
    /// An emitted event that found its crossbar port full.
    pub pending: Option<Flit<D>>,
    /// The crossbar port this stream is multiplexed onto.
    pub port: usize,
    pub timeline: StateTimeline,
    /// Set while the machine is not visiting this stream: the state every
    /// skipped cycle would have recorded, and since when.
    pub parked: Option<Parked>,
    /// While parked in [`GT_EDGE_READ`]: the line of the next edge. Its
    /// arrival is what the stream sleeps for.
    pub wait_line: u64,
    /// `(line, epoch)`: at unit line epoch `epoch`, every line of the
    /// current task's prefetch window below `line` was resident or on its
    /// way.
    covered_to: Option<(u64, u64)>,
}

impl<D> Stream<D> {
    fn new(port: usize) -> Self {
        Stream {
            active: None,
            pending: None,
            port,
            timeline: StateTimeline::new(&GEN_STATES),
            // Nothing to do until the processor queues a first task.
            parked: Some(Parked {
                since: Cycle::ZERO,
                state: GT_IDLE,
            }),
            wait_line: 0,
            covered_to: None,
        }
    }

    /// Starts walking `task`'s edge list.
    pub(crate) fn start(&mut self, task: GenTask<D>) {
        self.active = Some(ActiveGen {
            task,
            next_edge: 0,
            edge_wait: 0,
            gen_cycles: 0,
        });
        // A window is the task's: the old one says nothing about this one.
        self.covered_to = None;
    }

    /// Books the cycles slept before `now` into the timeline — and into
    /// the task's edge wait, if that is what the stream slept on; the span
    /// a still-parked stream owes restarts at `resume`.
    pub(crate) fn settle(&mut self, now: Cycle, resume: Cycle) {
        if let Some(parked) = &mut self.parked {
            let slept = parked.slept(now);
            self.timeline.add(parked.state, slept);
            if parked.state == GT_EDGE_READ {
                if let Some(active) = &mut self.active {
                    active.edge_wait += slept;
                }
            }
            parked.since = resume;
        }
    }

    /// Whether the stream is parked in `state`.
    pub(crate) fn parked_in(&self, state: usize) -> bool {
        self.parked.is_some_and(|p| p.state == state)
    }

    /// Whether the stream holds no work.
    pub(crate) fn is_idle(&self) -> bool {
        self.active.is_none() && self.pending.is_none()
    }
}

/// A generation unit: the streams attached to one processor plus their
/// shared edge cache.
#[derive(Debug)]
pub(crate) struct GenUnit<D> {
    pub buffer: VecDeque<GenTask<D>>,
    buffer_cap: usize,
    pub cache: Cache,
    /// Edge lines requested from memory but not yet arrived.
    pub pending_lines: Vec<u64>,
    /// Counts the ways a line can stop being resident or on its way — an
    /// eviction or a clear. A requested line stays pending until it
    /// arrives and then stays resident until one of those, so a prefetch
    /// window found covered stays covered while this stands still.
    lines_epoch: u64,
    pub streams: Vec<Stream<D>>,
}

impl<D> GenUnit<D> {
    pub(crate) fn new(
        streams: usize,
        buffer_cap: usize,
        cache: CacheConfig,
        first_port: usize,
        ports: usize,
    ) -> Self {
        GenUnit {
            buffer: VecDeque::with_capacity(buffer_cap),
            buffer_cap,
            cache: Cache::new(cache),
            pending_lines: Vec::new(),
            lines_epoch: 0,
            streams: (0..streams)
                .map(|s| Stream::new((first_port + s) % ports))
                .collect(),
        }
    }

    /// Whether the generation buffer can take another task.
    pub(crate) fn has_space(&self) -> bool {
        self.buffer.len() < self.buffer_cap
    }

    /// Queues a task.
    ///
    /// # Panics
    ///
    /// Panics on overflow; gate with [`GenUnit::has_space`].
    pub(crate) fn push_task(&mut self, task: GenTask<D>) {
        assert!(self.has_space(), "generation buffer overflow");
        self.buffer.push_back(task);
    }

    /// An edge line arrived from memory. Returns whether filling it pushed
    /// another line out of the cache — the one way a line some stream
    /// counted as resident can stop being so.
    pub(crate) fn line_arrived(&mut self, line: u64) -> bool {
        self.pending_lines.retain(|&l| l != line);
        let evicted = self.cache.fill(line).is_some();
        self.lines_epoch += u64::from(evicted);
        evicted
    }

    /// A read of edge line `line` was issued to memory.
    pub(crate) fn line_requested(&mut self, line: u64) {
        self.pending_lines.push(line);
    }

    /// Where stream `s`'s walk of its prefetch window, now starting at
    /// `first_line`, has to begin: past the lines it found covered, if no
    /// line has left the cache since.
    pub(crate) fn unchecked_from(&self, s: usize, first_line: u64) -> u64 {
        match self.streams[s].covered_to {
            Some((line, epoch)) if epoch == self.lines_epoch => line.max(first_line),
            _ => first_line,
        }
    }

    /// Stream `s` found every line of its window below `line` resident or
    /// on its way.
    pub(crate) fn note_covered_to(&mut self, s: usize, line: u64) {
        self.streams[s].covered_to = Some((line, self.lines_epoch));
    }

    /// Whether buffer and all streams are drained.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.buffer.is_empty()
            && self.pending_lines.is_empty()
            && self.streams.iter().all(Stream::is_idle)
    }

    /// Resets transient state for a slice swap.
    pub(crate) fn reset_for_swap(&mut self) {
        debug_assert!(self.is_quiescent(), "swap while busy");
        self.cache.clear();
        self.lines_epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> GenUnit<f64> {
        GenUnit::new(4, 2, CacheConfig { sets: 2, ways: 2 }, 3, 16)
    }

    #[test]
    fn ports_assigned_round_robin_from_first() {
        let u = unit();
        let ports: Vec<usize> = u.streams.iter().map(|s| s.port).collect();
        assert_eq!(ports, vec![3, 4, 5, 6]);
    }

    #[test]
    fn buffer_capacity_enforced() {
        let mut u = unit();
        let task = GenTask {
            vertex: VertexId::new(0),
            basis: 1.0,
            degree: 2,
            depth: 0,
            queued_at: Cycle::ZERO,
        };
        assert!(u.has_space());
        u.push_task(task);
        u.push_task(task);
        assert!(!u.has_space());
    }

    #[test]
    fn line_arrival_fills_cache_and_clears_pending() {
        let mut u = unit();
        u.pending_lines.push(64);
        assert!(!u.is_quiescent());
        assert!(!u.line_arrived(64), "room in the set: nothing evicted");
        assert!(u.cache.contains(64));
        assert!(u.is_quiescent());
        // Two sets of two ways: lines 64, 192 and 320 share set 1.
        assert!(!u.line_arrived(192));
        assert!(u.line_arrived(320), "a full set gives a line up");
        assert!(!u.cache.contains(64));
    }

    #[test]
    fn a_parked_edge_wait_is_settled_into_the_task_too() {
        let mut u = unit();
        let s = &mut u.streams[1];
        assert!(s.parked_in(GT_IDLE));
        s.settle(Cycle::new(7), Cycle::new(7));
        assert_eq!(s.timeline.total(), 7);
        s.active = Some(ActiveGen {
            task: GenTask {
                vertex: VertexId::new(1),
                basis: 0.5,
                degree: 3,
                depth: 0,
                queued_at: Cycle::ZERO,
            },
            next_edge: 0,
            edge_wait: 2,
            gen_cycles: 0,
        });
        s.parked = Some(Parked {
            since: Cycle::new(9),
            state: GT_EDGE_READ,
        });
        s.settle(Cycle::new(30), Cycle::new(30));
        assert_eq!(s.active.as_ref().unwrap().edge_wait, 2 + 21);
        assert_eq!(s.timeline.total(), 7 + 21);
        s.settle(Cycle::new(30), Cycle::new(30));
        assert_eq!(s.timeline.total(), 28, "settling twice books nothing twice");
    }

    #[test]
    fn quiescence_requires_idle_streams() {
        let mut u = unit();
        assert!(u.is_quiescent());
        u.streams[0].active = Some(ActiveGen {
            task: GenTask {
                vertex: VertexId::new(1),
                basis: 0.5,
                degree: 1,
                depth: 2,
                queued_at: Cycle::ZERO,
            },
            next_edge: 0,
            edge_wait: 0,
            gen_cycles: 0,
        });
        assert!(!u.is_quiescent());
    }
}
