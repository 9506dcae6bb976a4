//! The in-place coalescing event queue (§IV-D).

use std::collections::VecDeque;

use gp_algorithms::DeltaAlgorithm;
use gp_sim::Cycle;

use crate::{Event, QueueConfig};

/// Where a slice-local vertex index lives inside the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotAddr {
    pub bin: usize,
    pub row: usize,
    pub col: usize,
}

/// Column-bin-row mapping (§IV-D): consecutive vertices fill a row's
/// columns, consecutive rows spread across bins.
///
/// Wait — the paper maps "in column-bin-row order so that clusters in the
/// graph are likely to spread over multiple bins" while §IV-B wants blocks
/// of nearby vertices in the same bin row for drain locality. Filling the
/// columns of one row first, then moving to the next *bin* (same row
/// index), satisfies both: a drained row is a block of `cols` consecutive
/// vertices, and consecutive blocks land in different bins.
///
/// Every event's route goes through here, so it divides in 32 bits: a local
/// index is below the `u32` vertex-id space, and so is any queue dimension
/// a machine can allocate.
pub(crate) fn slot_of(local_index: usize, cfg: &QueueConfig) -> SlotAddr {
    debug_assert!(u32::try_from(local_index.max(cfg.cols * cfg.bins)).is_ok());
    let (l, cols, bins) = (local_index as u32, cfg.cols as u32, cfg.bins as u32);
    let block = l / cols;
    SlotAddr {
        bin: (block % bins) as usize,
        row: (block / bins) as usize,
        col: (l % cols) as usize,
    }
}

/// First slice-local vertex index of `row` in `bin` (the drained block's
/// base vertex).
pub(crate) fn row_base_index(bin: usize, row: usize, cfg: &QueueConfig) -> usize {
    (row * cfg.bins + bin) * cfg.cols
}

/// Outcome of offering an event to a bin's insertion port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    /// Stored into an empty slot.
    Inserted,
    /// Combined with an event already in the slot.
    Coalesced,
}

/// One direct-mapped, coalescing queue bin.
///
/// Timing model: one insertion may *initiate* per cycle; the
/// read–combine–write occupies a `coalescer_depth`-stage pipeline, and a
/// second insertion touching the same row stalls until the first retires
/// (structural hazard on the row's RAM block). Draining reads one whole row
/// per cycle, sweeping row indices upward once per scheduler round;
/// insertions to a bin stall during its drain cycles (§IV-D).
///
/// The insertion port only needs a visit ([`Bin::tick_insert`]) while its
/// input FIFO holds something, and a visit during a same-row stall returns
/// at once: the stall ends at a cycle known when it starts. The coalescer
/// retires in issue order, so a row's last write retires after every
/// earlier one: the hazard window is each row's last retire cycle and the
/// last issue cycle, and every reader of it takes the cycle it is reading
/// at.
#[derive(Debug)]
pub(crate) struct Bin<D> {
    /// Rows backed by storage: enough for the longest slice ever resident,
    /// which is all a direct-mapped queue can be asked to hold.
    rows: usize,
    cols: usize,
    slots: Vec<Option<Event<D>>>,
    row_counts: Vec<u16>,
    occupancy: usize,
    /// Network-side input FIFO.
    input: VecDeque<(SlotAddr, Event<D>)>,
    input_cap: usize,
    /// Coalescer pipeline depth: a write issued in cycle `t` retires in
    /// `t + depth`.
    depth: u64,
    /// Per row, the cycle the last write to it retires (`None`: never
    /// written). The row is busy through that cycle.
    row_retires: Vec<Option<Cycle>>,
    /// Cycle the last insertion started (one may start per cycle).
    last_issue: Option<Cycle>,
    /// The head of the input FIFO hits a row the coalescer is writing; no
    /// insertion can start before this cycle, when that write retires.
    stalled_until: Cycle,
    /// Next row the drain sweep will consider this round.
    sweep: usize,
    /// Cycle in which the scheduler last drained this bin (insertion is
    /// stalled for that cycle, §IV-D).
    drained_at: Option<Cycle>,
}

impl<D: Copy> Bin<D> {
    /// A bin of the `cfg` geometry with storage for its first `rows` rows
    /// (`rows <= cfg.rows`; the slot mapping never reaches further when no
    /// resident slice is longer than `rows * cfg.bins * cfg.cols`).
    pub(crate) fn new(
        cfg: &QueueConfig,
        rows: usize,
        input_cap: usize,
        coalescer_depth: u64,
    ) -> Self {
        debug_assert!(rows <= cfg.rows);
        Bin {
            rows,
            cols: cfg.cols,
            slots: vec![None; rows * cfg.cols],
            row_counts: vec![0; rows],
            occupancy: 0,
            input: VecDeque::with_capacity(input_cap),
            input_cap,
            depth: coalescer_depth,
            row_retires: vec![None; rows],
            last_issue: None,
            stalled_until: Cycle::ZERO,
            sweep: 0,
            drained_at: None,
        }
    }

    /// Whether the network can hand this bin another event.
    pub(crate) fn can_accept(&self) -> bool {
        self.input.len() < self.input_cap
    }

    /// Queues an event at the insertion port.
    ///
    /// # Panics
    ///
    /// Panics if the input FIFO is full; gate with [`Bin::can_accept`].
    pub(crate) fn accept(&mut self, slot: SlotAddr, ev: Event<D>) {
        assert!(self.can_accept(), "bin input fifo overflow");
        self.input.push_back((slot, ev));
    }

    /// Directly installs an event, bypassing the timing pipeline — used for
    /// host-side initial-event loading and slice swap-in (the paper loads
    /// initial events from the host, §III-B, and swap-in uses the bins'
    /// parallel insertion units, §IV-F).
    pub(crate) fn install<A>(&mut self, algo: &A, slot: SlotAddr, ev: Event<D>) -> InsertOutcome
    where
        A: DeltaAlgorithm<Delta = D>,
    {
        self.write_slot(algo, slot, ev)
    }

    fn write_slot<A>(&mut self, algo: &A, slot: SlotAddr, ev: Event<D>) -> InsertOutcome
    where
        A: DeltaAlgorithm<Delta = D>,
    {
        let idx = slot.row * self.cols + slot.col;
        match &mut self.slots[idx] {
            Some(existing) => {
                debug_assert_eq!(existing.target, ev.target, "slot aliasing");
                existing.delta = algo.coalesce(existing.delta, ev.delta);
                existing.meta = existing.meta.merge(ev.meta);
                InsertOutcome::Coalesced
            }
            empty @ None => {
                *empty = Some(ev);
                self.row_counts[slot.row] += 1;
                self.occupancy += 1;
                InsertOutcome::Inserted
            }
        }
    }

    /// Whether the input FIFO is empty: the insertion port has nothing to
    /// do until [`Bin::accept`] is called.
    pub(crate) fn input_is_empty(&self) -> bool {
        self.input.is_empty()
    }

    /// One cycle of the insertion port. Returns the outcome if an event was
    /// consumed from the input FIFO.
    pub(crate) fn tick_insert<A>(&mut self, now: Cycle, algo: &A) -> Option<InsertOutcome>
    where
        A: DeltaAlgorithm<Delta = D>,
    {
        if now < self.stalled_until
            || self.drained_at == Some(now)
            || self.last_issue.is_some_and(|at| at >= now)
        {
            return None;
        }
        let (slot, _) = self.input.front()?;
        if let Some(done) = self.row_retires[slot.row].filter(|&done| done > now) {
            self.stalled_until = done; // same-row hazard: asleep until the write retires
            return None;
        }
        let (slot, ev) = self.input.pop_front().expect("checked front");
        self.last_issue = Some(now);
        self.row_retires[slot.row] = Some(now + self.depth);
        Some(self.write_slot(algo, slot, ev))
    }

    /// The next occupied row the sweep would drain at cycle `now`, if any —
    /// `(row, count)`.
    pub(crate) fn peek_drain(&self, now: Cycle) -> Option<(usize, usize)> {
        // Skip rows the coalescer is still writing (read-write hazard). The
        // scheduler looks before the insertion port's turn in a cycle, so a
        // write retiring in `now` itself still counts.
        (self.sweep..self.rows).find_map(|r| {
            if self.row_counts[r] == 0 {
                None
            } else if self.row_retires[r].is_some_and(|done| done >= now) {
                Some((r, 0)) // present but busy: caller must retry
            } else {
                Some((r, self.row_counts[r] as usize))
            }
        })
    }

    /// Drains one row (the one [`Bin::peek_drain`] reported), returning its
    /// events in column order. Marks the bin busy for insertion this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `row` is empty (callers drain only peeked rows).
    pub(crate) fn drain_row(&mut self, row: usize, now: Cycle) -> Vec<Event<D>> {
        assert!(self.row_counts[row] > 0, "draining an empty row");
        let mut out = Vec::with_capacity(self.row_counts[row] as usize);
        for col in 0..self.cols {
            if let Some(ev) = self.slots[row * self.cols + col].take() {
                out.push(ev);
            }
        }
        self.occupancy -= out.len();
        self.row_counts[row] = 0;
        self.sweep = row + 1;
        self.drained_at = Some(now);
        out
    }

    /// Resets the drain sweep for a new scheduler round.
    pub(crate) fn reset_sweep(&mut self) {
        self.sweep = 0;
    }

    /// Unique pending events stored in the bin.
    pub(crate) fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Whether, seen before the insertion port's turn in cycle `now`, the
    /// input FIFO and the insertion pipeline are both empty.
    pub(crate) fn is_quiescent(&self, now: Cycle) -> bool {
        self.input.is_empty() && self.last_issue.is_none_or(|at| at + self.depth < now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::PageRankDelta;
    use gp_graph::VertexId;

    fn cfg() -> QueueConfig {
        QueueConfig {
            bins: 2,
            rows: 4,
            cols: 4,
        }
    }

    #[test]
    fn mapping_is_column_bin_row_and_bijective() {
        let c = cfg();
        let mut seen = std::collections::HashSet::new();
        for l in 0..c.capacity() {
            let s = slot_of(l, &c);
            assert!(s.bin < c.bins && s.row < c.rows && s.col < c.cols);
            assert!(seen.insert((s.bin, s.row, s.col)), "collision at {l}");
        }
        // Consecutive vertices share a row until the columns run out...
        assert_eq!(
            slot_of(0, &c),
            SlotAddr {
                bin: 0,
                row: 0,
                col: 0
            }
        );
        assert_eq!(
            slot_of(3, &c),
            SlotAddr {
                bin: 0,
                row: 0,
                col: 3
            }
        );
        // ...then move to the next bin, same row.
        assert_eq!(
            slot_of(4, &c),
            SlotAddr {
                bin: 1,
                row: 0,
                col: 0
            }
        );
        // ...and only then to the next row.
        assert_eq!(
            slot_of(8, &c),
            SlotAddr {
                bin: 0,
                row: 1,
                col: 0
            }
        );
        // row_base_index inverts the mapping for whole rows.
        assert_eq!(row_base_index(1, 0, &c), 4);
        assert_eq!(row_base_index(0, 1, &c), 8);
    }

    #[test]
    fn insert_then_coalesce() {
        let pr = PageRankDelta::new(0.85, 0.0);
        let mut bin: Bin<f64> = Bin::new(&cfg(), 4, 8, 4);
        let slot = SlotAddr {
            bin: 0,
            row: 0,
            col: 0,
        };
        bin.accept(slot, Event::new(VertexId::new(0), 1.0, 0));
        bin.accept(slot, Event::new(VertexId::new(0), 2.0, 5));

        let mut now = Cycle::ZERO;
        assert_eq!(bin.tick_insert(now, &pr), Some(InsertOutcome::Inserted));
        // Second event to the same row stalls until the pipeline retires.
        now = now.next();
        assert_eq!(bin.tick_insert(now, &pr), None);
        for _ in 0..4 {
            now = now.next();
        }
        assert_eq!(bin.tick_insert(now, &pr), Some(InsertOutcome::Coalesced));
        assert_eq!(bin.occupancy(), 1);

        let evs = bin.drain_row(0, now);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].delta, 3.0);
        assert_eq!(evs[0].meta.lookahead(), 5);
        assert_eq!(bin.occupancy(), 0);
    }

    #[test]
    fn different_rows_insert_back_to_back() {
        let pr = PageRankDelta::new(0.85, 0.0);
        let mut bin: Bin<f64> = Bin::new(&cfg(), 4, 8, 4);
        bin.accept(
            SlotAddr {
                bin: 0,
                row: 0,
                col: 0,
            },
            Event::new(VertexId::new(0), 1.0, 0),
        );
        bin.accept(
            SlotAddr {
                bin: 0,
                row: 1,
                col: 0,
            },
            Event::new(VertexId::new(8), 1.0, 0),
        );
        assert!(bin.tick_insert(Cycle::new(0), &pr).is_some());
        assert!(bin.tick_insert(Cycle::new(1), &pr).is_some());
        assert_eq!(bin.occupancy(), 2);
    }

    #[test]
    fn sweep_visits_each_row_once_per_round() {
        let pr = PageRankDelta::new(0.85, 0.0);
        let mut bin: Bin<f64> = Bin::new(&cfg(), 4, 8, 1);
        for (i, row) in [0usize, 2].iter().enumerate() {
            bin.accept(
                SlotAddr {
                    bin: 0,
                    row: *row,
                    col: 0,
                },
                Event::new(VertexId::new(i as u32), 1.0, 0),
            );
            bin.tick_insert(Cycle::new(i as u64), &pr);
        }
        assert_eq!(bin.peek_drain(Cycle::new(4)).map(|(r, _)| r), Some(0));
        bin.drain_row(0, Cycle::new(4));
        assert_eq!(bin.peek_drain(Cycle::new(5)).map(|(r, _)| r), Some(2));
        bin.drain_row(2, Cycle::new(5));
        assert_eq!(bin.peek_drain(Cycle::new(6)), None);
        // An event inserted behind the sweep waits for the next round.
        bin.accept(
            SlotAddr {
                bin: 0,
                row: 1,
                col: 1,
            },
            Event::new(VertexId::new(9), 1.0, 0),
        );
        bin.tick_insert(Cycle::new(10), &pr);
        assert_eq!(bin.peek_drain(Cycle::new(12)), None);
        bin.reset_sweep();
        assert_eq!(bin.peek_drain(Cycle::new(12)).map(|(r, _)| r), Some(1));
    }

    #[test]
    fn drain_blocks_insert_same_cycle() {
        let pr = PageRankDelta::new(0.85, 0.0);
        let mut bin: Bin<f64> = Bin::new(&cfg(), 4, 8, 1);
        bin.accept(
            SlotAddr {
                bin: 0,
                row: 0,
                col: 0,
            },
            Event::new(VertexId::new(0), 1.0, 0),
        );
        bin.tick_insert(Cycle::new(0), &pr);
        bin.accept(
            SlotAddr {
                bin: 0,
                row: 3,
                col: 0,
            },
            Event::new(VertexId::new(1), 1.0, 0),
        );
        bin.drain_row(0, Cycle::new(5));
        assert_eq!(bin.tick_insert(Cycle::new(5), &pr), None); // stalled by drain
        assert!(bin.tick_insert(Cycle::new(6), &pr).is_some());
    }

    /// Randomized queue geometries for the property tests below, skewed
    /// toward degenerate shapes (single bin, single column, single row).
    fn random_configs(rng: &mut gp_graph::rng::StdRng, n: usize) -> Vec<QueueConfig> {
        use gp_graph::rng::Rng;
        let mut cfgs = vec![
            QueueConfig {
                bins: 1,
                rows: 1,
                cols: 1,
            },
            QueueConfig {
                bins: 1,
                rows: 7,
                cols: 3,
            },
            QueueConfig {
                bins: 5,
                rows: 1,
                cols: 2,
            },
            QueueConfig {
                bins: 3,
                rows: 4,
                cols: 1,
            },
        ];
        for _ in 0..n {
            cfgs.push(QueueConfig {
                bins: rng.gen_range(1..9usize),
                rows: rng.gen_range(1..17usize),
                cols: rng.gen_range(1..9usize),
            });
        }
        cfgs
    }

    #[test]
    fn property_slot_of_round_trips_through_row_base_index() {
        let mut rng = gp_graph::rng::StdRng::seed_from_u64(0x51);
        for (case, c) in random_configs(&mut rng, 24).into_iter().enumerate() {
            for l in 0..c.capacity() {
                let s = slot_of(l, &c);
                let base = row_base_index(s.bin, s.row, &c);
                assert_eq!(
                    base + s.col,
                    l,
                    "case {case}: row base + column must reconstruct the index"
                );
                assert!(
                    base <= l && l < base + c.cols,
                    "case {case}: index outside its row"
                );
            }
        }
    }

    #[test]
    fn property_no_two_local_indices_share_a_slot() {
        let mut rng = gp_graph::rng::StdRng::seed_from_u64(0x52);
        for (case, c) in random_configs(&mut rng, 24).into_iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for l in 0..c.capacity() {
                let s = slot_of(l, &c);
                assert!(s.bin < c.bins && s.row < c.rows && s.col < c.cols);
                assert!(
                    seen.insert((s.bin, s.row, s.col)),
                    "case {case}: local indices {l} and an earlier one share a slot"
                );
            }
            assert_eq!(seen.len(), c.capacity());
        }
    }

    #[test]
    fn property_drained_row_is_a_block_of_consecutive_vertices() {
        use gp_graph::rng::Rng;
        let pr = PageRankDelta::new(0.85, 0.0);
        let mut rng = gp_graph::rng::StdRng::seed_from_u64(0x53);
        for (case, c) in random_configs(&mut rng, 12).into_iter().enumerate() {
            // Install every local index of a random subset of the capacity.
            let mut bins: Vec<Bin<f64>> = (0..c.bins).map(|_| Bin::new(&c, c.rows, 8, 1)).collect();
            for l in 0..c.capacity() {
                if rng.gen_bool(0.7) {
                    let s = slot_of(l, &c);
                    bins[s.bin].install(&pr, s, Event::new(VertexId::new(l as u32), 1.0, 0));
                }
            }
            for (b, bin) in bins.iter_mut().enumerate() {
                let mut now = Cycle::ZERO;
                while let Some((row, count)) = bin.peek_drain(now) {
                    assert!(count > 0, "install path leaves no busy rows");
                    let evs = bin.drain_row(row, now);
                    now = now.next();
                    let base = row_base_index(b, row, &c);
                    // Drained events are `cols` consecutive vertices of the
                    // row's block, in ascending column order.
                    let targets: Vec<usize> = evs.iter().map(|e| e.target.index()).collect();
                    let mut sorted = targets.clone();
                    sorted.sort_unstable();
                    assert_eq!(targets, sorted, "case {case}: drain out of column order");
                    for t in &targets {
                        assert!(
                            *t >= base && *t < base + c.cols,
                            "case {case}: vertex {t} outside block [{base}, {})",
                            base + c.cols
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quiescence_reflects_buffers() {
        let pr = PageRankDelta::new(0.85, 0.0);
        let mut bin: Bin<f64> = Bin::new(&cfg(), 4, 8, 2);
        assert!(bin.is_quiescent(Cycle::ZERO));
        bin.accept(
            SlotAddr {
                bin: 0,
                row: 0,
                col: 0,
            },
            Event::new(VertexId::new(0), 1.0, 0),
        );
        assert!(!bin.is_quiescent(Cycle::ZERO));
        bin.tick_insert(Cycle::new(0), &pr);
        // Still in the coalescer pipeline, its retire cycle included: the
        // scheduler looks before the port retires anything in a cycle.
        assert!(!bin.is_quiescent(Cycle::new(1)));
        assert!(!bin.is_quiescent(Cycle::new(2)));
        // Retired, whether or not the port was visited to drop it.
        assert!(bin.is_quiescent(Cycle::new(3)));
        bin.tick_insert(Cycle::new(3), &pr);
        assert!(bin.is_quiescent(Cycle::new(3)));
    }

    #[test]
    fn a_same_row_stall_ends_in_the_retire_cycle() {
        // Depth 4: the write issued in cycle 10 retires in cycle 14. The
        // second event to the row cannot start before then, starts exactly
        // then, and until then the scheduler sees the row busy — whether
        // the port is visited during the stall (as an every-cycle model
        // would) or not at all.
        for visit_while_stalled in [true, false] {
            let pr = PageRankDelta::new(0.85, 0.0);
            let mut bin: Bin<f64> = Bin::new(&cfg(), 4, 8, 4);
            let slot = SlotAddr {
                bin: 0,
                row: 2,
                col: 1,
            };
            bin.accept(slot, Event::new(VertexId::new(0), 1.0, 0));
            bin.accept(slot, Event::new(VertexId::new(0), 2.0, 0));
            assert_eq!(
                bin.tick_insert(Cycle::new(10), &pr),
                Some(InsertOutcome::Inserted)
            );
            assert_eq!(bin.tick_insert(Cycle::new(11), &pr), None);
            for t in 11..=14 {
                assert_eq!(
                    bin.peek_drain(Cycle::new(t)),
                    Some((2, 0)),
                    "row busy through its retire cycle {t}"
                );
                if visit_while_stalled && t < 14 {
                    assert_eq!(bin.tick_insert(Cycle::new(t), &pr), None);
                }
            }
            assert_eq!(
                bin.tick_insert(Cycle::new(14), &pr),
                Some(InsertOutcome::Coalesced),
                "the stalled insert starts in the retire cycle"
            );
            assert!(bin.input_is_empty());
            // That insert is itself in flight through cycle 18.
            assert_eq!(bin.peek_drain(Cycle::new(18)), Some((2, 0)));
            assert_eq!(bin.peek_drain(Cycle::new(19)), Some((2, 1)));
        }
    }

    /// The bin's timing as it was kept before the per-row retire cycles:
    /// every in-flight write in a `Pipeline`, retired lazily by the port,
    /// and a row's hazard read by walking it. Slots are occupancy bits.
    struct PipelineBin {
        cols: usize,
        occupied: Vec<bool>,
        row_counts: Vec<usize>,
        input: VecDeque<SlotAddr>,
        inflight: gp_sim::Pipeline<usize>,
        stalled_until: Cycle,
        sweep: usize,
        drained_at: Option<Cycle>,
    }

    impl PipelineBin {
        fn new(rows: usize, cols: usize, depth: u64) -> Self {
            PipelineBin {
                cols,
                occupied: vec![false; rows * cols],
                row_counts: vec![0; rows],
                input: VecDeque::new(),
                inflight: gp_sim::Pipeline::new(depth),
                stalled_until: Cycle::ZERO,
                sweep: 0,
                drained_at: None,
            }
        }

        fn row_busy_until(&self, row: usize) -> Option<Cycle> {
            let due = self.inflight.due();
            due.filter(|(_, r)| **r == row).map(|(done, _)| done).last()
        }

        fn tick_insert(&mut self, now: Cycle) -> Option<InsertOutcome> {
            if now < self.stalled_until {
                return None;
            }
            while self.inflight.retire(now).is_some() {}
            if self.drained_at == Some(now) || !self.inflight.can_issue(now) {
                return None;
            }
            let row = self.input.front()?.row;
            if let Some(retires) = self.row_busy_until(row) {
                self.stalled_until = retires;
                return None;
            }
            let slot = self.input.pop_front().expect("checked front");
            self.inflight.issue(now, row);
            let idx = slot.row * self.cols + slot.col;
            if std::mem::replace(&mut self.occupied[idx], true) {
                Some(InsertOutcome::Coalesced)
            } else {
                self.row_counts[slot.row] += 1;
                Some(InsertOutcome::Inserted)
            }
        }

        fn peek_drain(&self, now: Cycle) -> Option<(usize, usize)> {
            (self.sweep..self.row_counts.len()).find_map(|r| {
                if self.row_counts[r] == 0 {
                    None
                } else if self.row_busy_until(r).is_some_and(|done| done >= now) {
                    Some((r, 0))
                } else {
                    Some((r, self.row_counts[r]))
                }
            })
        }

        fn drain_row(&mut self, row: usize, now: Cycle) {
            let cols = row * self.cols..(row + 1) * self.cols;
            self.occupied[cols].fill(false);
            self.row_counts[row] = 0;
            self.sweep = row + 1;
            self.drained_at = Some(now);
        }

        fn is_quiescent(&self, now: Cycle) -> bool {
            self.input.is_empty() && self.inflight.due().all(|(done, _)| done < now)
        }
    }

    #[test]
    fn retire_cycles_time_the_bin_as_the_pipeline_did() {
        use gp_graph::rng::{Rng, StdRng};
        let pr = PageRankDelta::new(0.85, 0.0);
        for depth in 1..=4u64 {
            for seed in 0..8 {
                let mut rng = StdRng::seed_from_u64(depth * 100 + seed);
                let c = QueueConfig {
                    bins: 1,
                    rows: rng.gen_range(1..5usize),
                    cols: rng.gen_range(1..4usize),
                };
                let mut bin: Bin<f64> = Bin::new(&c, c.rows, 6, depth);
                let mut reference = PipelineBin::new(c.rows, c.cols, depth);
                let mut now = Cycle::ZERO;
                for step in 0..2_000 {
                    let at = format!("depth {depth}, seed {seed}, step {step}, {now}");
                    // The scheduler looks first, as in `Machine::tick`.
                    assert_eq!(bin.is_quiescent(now), reference.is_quiescent(now), "{at}");
                    let peeked = bin.peek_drain(now);
                    assert_eq!(peeked, reference.peek_drain(now), "{at}");
                    match peeked {
                        Some((row, count)) if count > 0 && rng.gen_bool(0.3) => {
                            assert_eq!(bin.drain_row(row, now).len(), count, "{at}");
                            reference.drain_row(row, now);
                        }
                        None if rng.gen_bool(0.5) => {
                            bin.reset_sweep();
                            reference.sweep = 0;
                        }
                        _ => {}
                    }
                    // Then the network hands over events, then the port.
                    for _ in 0..rng.gen_range(0..3usize) {
                        if bin.can_accept() {
                            let slot = SlotAddr {
                                bin: 0,
                                row: rng.gen_range(0..c.rows),
                                col: rng.gen_range(0..c.cols),
                            };
                            let v = (slot.row * c.cols + slot.col) as u32;
                            bin.accept(slot, Event::new(VertexId::new(v), 1.0, 0));
                            reference.input.push_back(slot);
                        }
                    }
                    if !bin.input_is_empty() && rng.gen_bool(0.8) {
                        assert_eq!(
                            bin.tick_insert(now, &pr),
                            reference.tick_insert(now),
                            "{at}"
                        );
                    }
                    // Now and then the clock jumps, as it does past idle cycles.
                    now += if rng.gen_bool(0.1) {
                        rng.gen_range(2..7u64)
                    } else {
                        1
                    };
                }
            }
        }
    }

    #[test]
    fn storage_follows_the_rows_asked_for_not_the_geometry() {
        // The paper's 4096-row geometry with two resident rows: two rows of
        // slots, and the sweep ends where the storage does.
        let pr = PageRankDelta::new(0.85, 0.0);
        let paper = QueueConfig::paper();
        let mut bin: Bin<f64> = Bin::new(&paper, 2, 8, 4);
        assert_eq!(bin.slots.len(), 2 * paper.cols);
        let slot = slot_of(paper.bins * paper.cols + 5, &paper);
        assert_eq!((slot.bin, slot.row, slot.col), (0, 1, 5));
        bin.install(&pr, slot, Event::new(VertexId::new(7), 1.0, 0));
        assert_eq!(bin.peek_drain(Cycle::ZERO), Some((1, 1)));
        assert_eq!(bin.drain_row(1, Cycle::ZERO).len(), 1);
        assert_eq!(bin.peek_drain(Cycle::new(1)), None);
    }
}
