//! The DDR3-style main-memory timing model.

use std::collections::VecDeque;

use gp_sim::{Cycle, EventWheel};

use crate::protocol::{IssueRecord, RowOutcome};
use crate::{DramConfig, MemRequest, ReqId, TrafficClass, LINE_BYTES};

/// Aggregate off-chip traffic statistics.
///
/// `accesses`/`bytes`/`useful_bytes` are indexed per [`TrafficClass`];
/// helpers expose totals. These counters are the raw data of Figs. 11
/// and 12.
#[derive(Debug, Default, Clone)]
pub struct MemStats {
    accesses: [u64; 6],
    bytes: [u64; 6],
    useful_bytes: [u64; 6],
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row activations on an idle (precharged) bank.
    pub row_misses: u64,
    /// Row conflicts (different row open: precharge + activate).
    pub row_conflicts: u64,
    /// Requests rejected because a channel queue was full.
    pub rejections: u64,
    /// Cycles any channel bus was transferring data (sum over channels).
    pub bus_busy_cycles: u64,
}

impl MemStats {
    /// Number of requests of `class` serviced.
    pub fn accesses(&self, class: TrafficClass) -> u64 {
        self.accesses[class.index()]
    }

    /// Bytes transferred for `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Bytes the requesters actually consumed for `class`.
    pub fn useful_bytes(&self, class: TrafficClass) -> u64 {
        self.useful_bytes[class.index()]
    }

    /// Total off-chip accesses.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total bytes moved off-chip.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total useful bytes (Fig. 12 numerator).
    pub fn total_useful_bytes(&self) -> u64 {
        self.useful_bytes.iter().sum()
    }

    /// Fraction of transferred bytes that were consumed (Fig. 12).
    pub fn utilization(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.total_useful_bytes() as f64 / total as f64
        }
    }

    /// Row-buffer hit rate over all activations.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (used to fold per-shard memory
    /// systems into one report in the parallel runner).
    pub fn merge(&mut self, other: &MemStats) {
        for i in 0..self.accesses.len() {
            self.accesses[i] += other.accesses[i];
            self.bytes[i] += other.bytes[i];
            self.useful_bytes[i] += other.useful_bytes[i];
        }
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.rejections += other.rejections;
        self.bus_busy_cycles += other.bus_busy_cycles;
    }
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
}

#[derive(Debug)]
struct Channel {
    queue: VecDeque<MemRequest>,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
}

/// The multi-channel DRAM model.
///
/// Submit transactions with [`MemorySystem::request`], advance the model
/// with [`MemorySystem::tick`] once per cycle, and harvest finished
/// transactions with [`MemorySystem::pop_completion`]. A caller that has
/// nothing to submit may skip ahead to [`MemorySystem::next_event`]: `tick`
/// does nothing on the cycles in between. Ordering between
/// requests to different banks/channels is not guaranteed (bank-level
/// parallelism); requests to the same bank complete in issue order.
///
/// See the crate-level example for the canonical polling loop.
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    channels: Vec<Channel>,
    completions: EventWheel<MemRequest>,
    ready: VecDeque<MemRequest>,
    stats: MemStats,
    next_id: u64,
    in_flight: usize,
    trace: Option<Vec<IssueRecord>>,
}

impl MemorySystem {
    /// Creates a memory system from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`DramConfig::validate`].
    pub fn new(config: DramConfig) -> Self {
        config.validate().expect("invalid DRAM configuration");
        let channels = (0..config.channels)
            .map(|_| Channel {
                queue: VecDeque::with_capacity(config.queue_depth),
                banks: vec![
                    Bank {
                        open_row: None,
                        ready_at: Cycle::ZERO,
                    };
                    config.banks_per_channel
                ],
                bus_free_at: Cycle::ZERO,
            })
            .collect();
        MemorySystem {
            config,
            channels,
            completions: EventWheel::new(),
            ready: VecDeque::new(),
            stats: MemStats::default(),
            next_id: 0,
            in_flight: 0,
            trace: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Starts recording one [`IssueRecord`] per issued transaction
    /// (a debug hook for [`crate::check_protocol`]). Off by default; the
    /// trace grows unbounded while enabled, so reserve it for bounded
    /// verification workloads.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Vec::new);
    }

    /// Takes the accumulated command trace, leaving recording enabled.
    pub fn take_trace(&mut self) -> Vec<IssueRecord> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The channel that serves `addr` (lines interleave across channels).
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / LINE_BYTES) % self.config.channels as u64) as usize
    }

    /// Submits a request; returns its assigned id.
    ///
    /// # Errors
    ///
    /// Hands the request back when the target channel's queue is full
    /// (backpressure) — retry on a later cycle.
    pub fn request(&mut self, _now: Cycle, mut req: MemRequest) -> Result<ReqId, MemRequest> {
        let ch = self.channel_of(req.addr());
        if self.channels[ch].queue.len() >= self.config.queue_depth {
            self.stats.rejections += 1;
            return Err(req);
        }
        req.id = ReqId(self.next_id);
        self.next_id += 1;
        self.in_flight += 1;
        let id = req.id;
        self.channels[ch].queue.push_back(req);
        Ok(id)
    }

    /// Whether the channel that would serve `addr` can accept a request.
    pub fn can_accept(&self, addr: u64) -> bool {
        let ch = self.channel_of(addr);
        self.channels[ch].queue.len() < self.config.queue_depth
    }

    /// Advances the model one cycle: each channel may issue one queued
    /// request (FR-FCFS within a bounded window) and due completions become
    /// available to [`MemorySystem::pop_completion`].
    ///
    /// Returns the channels that took a request off their queue this
    /// cycle, channel `c` as bit `c % 64`. A queue only ever gets shorter
    /// here, so a requester that [`MemorySystem::can_accept`] refused has
    /// no reason to ask again before its channel's bit shows up.
    pub fn tick(&mut self, now: Cycle) -> u64 {
        let mut dequeued = 0;
        for ch_idx in 0..self.channels.len() {
            if self.issue_one(ch_idx, now) {
                dequeued |= 1 << (ch_idx % 64);
            }
        }
        while let Some(req) = self.completions.pop_due(now) {
            self.ready.push_back(req);
        }
        dequeued
    }

    /// Issues at most one request of channel `ch_idx`; whether it did.
    fn issue_one(&mut self, ch_idx: usize, now: Cycle) -> bool {
        // Select within the scheduler window: prefer the first row hit on a
        // ready bank, otherwise the oldest request whose bank is ready.
        let (row_bytes, banks_per_channel, window) = (
            self.config.row_bytes,
            self.config.banks_per_channel as u64,
            self.config.sched_window,
        );
        let ch = &mut self.channels[ch_idx];
        if ch.bus_free_at > now {
            return false;
        }
        let mut pick: Option<usize> = None;
        let mut fallback: Option<usize> = None;
        for (i, req) in ch.queue.iter().take(window).enumerate() {
            let row = req.addr() / row_bytes;
            let bank = (row % banks_per_channel) as usize;
            if ch.banks[bank].ready_at > now {
                continue;
            }
            if ch.banks[bank].open_row == Some(row) {
                pick = Some(i);
                break;
            }
            if fallback.is_none() {
                fallback = Some(i);
            }
        }
        let Some(i) = pick.or(fallback) else {
            return false;
        };
        let req = ch.queue.remove(i).expect("scheduler window within queue");
        let row = req.addr() / row_bytes;
        let bank_idx = (row % banks_per_channel) as usize;
        let bank = &mut ch.banks[bank_idx];

        let outcome = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                RowOutcome::Hit
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                RowOutcome::Conflict
            }
            None => {
                self.stats.row_misses += 1;
                RowOutcome::Miss
            }
        };
        let access_lat = outcome.access_latency(&self.config);
        let burst = (f64::from(req.bytes()) / self.config.bytes_per_cycle).ceil() as u64;
        let burst = burst.max(1);
        let done = now + access_lat + burst;
        bank.open_row = Some(row);
        // Column accesses to an open row pipeline at burst rate (tCCD);
        // only activation/precharge occupies the bank beyond the transfer.
        bank.ready_at = now + (access_lat - self.config.t_cas) + burst;
        ch.bus_free_at = now + burst; // data bus occupied for the burst
        self.stats.bus_busy_cycles += burst;
        if let Some(trace) = &mut self.trace {
            trace.push(IssueRecord {
                at: now.get(),
                channel: ch_idx,
                bank: bank_idx,
                row,
                outcome,
                burst,
            });
        }

        let idx = req.class().index();
        self.stats.accesses[idx] += 1;
        self.stats.bytes[idx] += u64::from(req.bytes());
        self.stats.useful_bytes[idx] += u64::from(req.useful_bytes());

        self.completions.schedule(done, req);
        true
    }

    /// Pops one finished request, if any completed by `now`.
    pub fn pop_completion(&mut self, _now: Cycle) -> Option<MemRequest> {
        let req = self.ready.pop_front();
        if req.is_some() {
            self.in_flight -= 1;
        }
        req
    }

    /// Number of submitted requests not yet popped.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether queues, banks, and completion buffers are all drained.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The earliest cycle at which [`MemorySystem::tick`] has anything to
    /// do, provided nothing is submitted before then: the next completion,
    /// or the first cycle a channel's bus is free and a request in its
    /// scheduler window has a ready bank. `Cycle::ZERO` while a completion
    /// waits to be popped, `Cycle::NEVER` when idle. Exact, so a
    /// fast-forward loop that jumps here skips only cycles in which the
    /// model would not have changed.
    pub fn next_event(&self) -> Cycle {
        if !self.ready.is_empty() {
            return Cycle::ZERO;
        }
        let (row_bytes, banks) = (self.config.row_bytes, self.config.banks_per_channel as u64);
        let mut next = self.completions.next_due();
        for ch in &self.channels {
            let bank_ready = ch
                .queue
                .iter()
                .take(self.config.sched_window)
                .map(|req| ch.banks[((req.addr() / row_bytes) % banks) as usize].ready_at)
                .min();
            if let Some(ready) = bank_ready {
                next = next.min(ready.max(ch.bus_free_at));
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_complete(
        mem: &mut MemorySystem,
        start: Cycle,
        count: usize,
    ) -> Vec<(Cycle, MemRequest)> {
        let mut done = Vec::new();
        let mut now = start;
        for _ in 0..1_000_000 {
            mem.tick(now);
            while let Some(r) = mem.pop_completion(now) {
                done.push((now, r));
            }
            if done.len() >= count {
                break;
            }
            now = now.next();
        }
        assert_eq!(done.len(), count, "requests did not complete");
        done
    }

    #[test]
    fn single_read_latency_is_miss_latency_plus_burst() {
        let cfg = DramConfig::single_channel();
        let mut mem = MemorySystem::new(cfg);
        mem.request(Cycle::ZERO, MemRequest::read(0, 64, TrafficClass::Other))
            .unwrap();
        let done = run_until_complete(&mut mem, Cycle::ZERO, 1);
        // t_rcd + t_cas + ceil(64/17) = 14 + 14 + 4 = 32
        assert_eq!(done[0].0, Cycle::new(32));
        assert_eq!(mem.stats().row_misses, 1);
        assert!(mem.is_idle());
    }

    #[test]
    fn row_hits_are_faster_than_conflicts() {
        let cfg = DramConfig::single_channel();
        // Same row twice.
        let mut mem = MemorySystem::new(cfg);
        mem.request(Cycle::ZERO, MemRequest::read(0, 64, TrafficClass::Other))
            .unwrap();
        mem.request(Cycle::ZERO, MemRequest::read(64, 64, TrafficClass::Other))
            .unwrap();
        let done_hit = run_until_complete(&mut mem, Cycle::ZERO, 2);
        assert_eq!(mem.stats().row_hits, 1);

        // Two different rows on the same bank: row id differs by
        // banks_per_channel rows.
        let cfg = DramConfig::single_channel();
        let stride = cfg.row_bytes * cfg.banks_per_channel as u64;
        let mut mem2 = MemorySystem::new(cfg);
        mem2.request(Cycle::ZERO, MemRequest::read(0, 64, TrafficClass::Other))
            .unwrap();
        mem2.request(
            Cycle::ZERO,
            MemRequest::read(stride, 64, TrafficClass::Other),
        )
        .unwrap();
        let done_conflict = run_until_complete(&mut mem2, Cycle::ZERO, 2);
        assert_eq!(mem2.stats().row_conflicts, 1);
        assert!(done_conflict[1].0 > done_hit[1].0);
    }

    #[test]
    fn channels_serve_in_parallel() {
        let cfg = DramConfig::paper();
        let mut mem = MemorySystem::new(cfg);
        // Four requests, one per channel (line interleaving).
        for ch in 0..4u64 {
            mem.request(
                Cycle::ZERO,
                MemRequest::read(ch * LINE_BYTES, 64, TrafficClass::Other),
            )
            .unwrap();
        }
        let done = run_until_complete(&mut mem, Cycle::ZERO, 4);
        // All finish at the same cycle as a single request would.
        assert!(done.iter().all(|(t, _)| *t == Cycle::new(32)));
    }

    #[test]
    fn same_channel_requests_serialize_on_the_bus() {
        let cfg = DramConfig::single_channel();
        let mut mem = MemorySystem::new(cfg);
        mem.request(Cycle::ZERO, MemRequest::read(0, 64, TrafficClass::Other))
            .unwrap();
        mem.request(Cycle::ZERO, MemRequest::read(64, 64, TrafficClass::Other))
            .unwrap();
        let done = run_until_complete(&mut mem, Cycle::ZERO, 2);
        assert!(
            done[1].0 > done[0].0,
            "second transfer must wait for the bus"
        );
    }

    #[test]
    fn backpressure_rejects_when_queue_full() {
        let mut cfg = DramConfig::single_channel();
        cfg.queue_depth = 2;
        let mut mem = MemorySystem::new(cfg);
        assert!(mem.can_accept(0));
        mem.request(Cycle::ZERO, MemRequest::read(0, 64, TrafficClass::Other))
            .unwrap();
        mem.request(Cycle::ZERO, MemRequest::read(64, 64, TrafficClass::Other))
            .unwrap();
        assert!(!mem.can_accept(128));
        let err = mem.request(Cycle::ZERO, MemRequest::read(128, 64, TrafficClass::Other));
        assert!(err.is_err());
        assert_eq!(mem.stats().rejections, 1);
    }

    #[test]
    fn stats_track_classes_and_utilization() {
        let mut mem = MemorySystem::new(DramConfig::single_channel());
        mem.request(
            Cycle::ZERO,
            MemRequest::read(0, 64, TrafficClass::VertexRead).with_useful_bytes(8),
        )
        .unwrap();
        mem.request(
            Cycle::ZERO,
            MemRequest::read(64, 64, TrafficClass::EdgeRead),
        )
        .unwrap();
        run_until_complete(&mut mem, Cycle::ZERO, 2);
        let s = mem.stats();
        assert_eq!(s.accesses(TrafficClass::VertexRead), 1);
        assert_eq!(s.bytes(TrafficClass::VertexRead), 64);
        assert_eq!(s.useful_bytes(TrafficClass::VertexRead), 8);
        assert_eq!(s.total_bytes(), 128);
        assert!((s.utilization() - 72.0 / 128.0).abs() < 1e-12);
        assert_eq!(s.total_accesses(), 2);
    }

    #[test]
    fn command_trace_of_a_real_run_is_protocol_legal() {
        let mut mem = MemorySystem::new(DramConfig::paper());
        mem.enable_trace();
        let mut now = Cycle::ZERO;
        let mut pending = 0usize;
        for i in 0..300u64 {
            // A mix of strides hitting every channel/bank with hits,
            // misses, and conflicts.
            let addr = (i * 72) ^ ((i % 7) * 65_536);
            if mem
                .request(now, MemRequest::read(addr, 48, TrafficClass::Other))
                .is_ok()
            {
                pending += 1;
            }
            mem.tick(now);
            while mem.pop_completion(now).is_some() {
                pending -= 1;
            }
            now = now.next();
        }
        for _ in 0..100_000 {
            if pending == 0 {
                break;
            }
            mem.tick(now);
            while mem.pop_completion(now).is_some() {
                pending -= 1;
            }
            now = now.next();
        }
        assert_eq!(pending, 0);
        let trace = mem.take_trace();
        assert!(!trace.is_empty());
        crate::check_protocol(mem.config(), &trace).unwrap();
        // Trace outcomes reconcile with the stats counters.
        let hits = trace
            .iter()
            .filter(|r| r.outcome == RowOutcome::Hit)
            .count() as u64;
        assert_eq!(hits, mem.stats().row_hits);
    }

    #[test]
    fn tick_reports_the_channels_that_dequeued() {
        let mut mem = MemorySystem::new(DramConfig::paper());
        // Lines 1 and 3 interleave onto channels 1 and 3.
        for line in [1u64, 3] {
            let addr = line * LINE_BYTES;
            assert_eq!(mem.channel_of(addr), line as usize);
            mem.request(Cycle::ZERO, MemRequest::read(addr, 64, TrafficClass::Other))
                .unwrap();
        }
        assert_eq!(mem.tick(Cycle::ZERO), 0b1010);
        assert_eq!(mem.tick(Cycle::new(1)), 0, "both queues are empty now");
    }

    #[test]
    fn skipping_to_next_event_changes_nothing() {
        // One request stream, two drivers: `tick` on every cycle, and
        // `tick` only on the cycles `next_event` names. Completion times,
        // the command trace and the statistics must agree.
        let submit = |mem: &mut MemorySystem, i: u64, now: Cycle| {
            let addr = (i * 72) ^ ((i % 5) * 65_536);
            let _ = mem.request(now, MemRequest::read(addr, 40, TrafficClass::Other));
        };
        let mut cfg = DramConfig::paper();
        cfg.queue_depth = 6;
        let run = |skip: bool| {
            let mut mem = MemorySystem::new(cfg);
            mem.enable_trace();
            let mut done = Vec::new();
            let mut now = Cycle::ZERO;
            for burst in 0..40u64 {
                // A burst of submissions every 97 cycles, then quiet.
                for i in 0..12 {
                    submit(&mut mem, burst * 12 + i, now);
                }
                let until = Cycle::new((burst + 1) * 97);
                while now < until {
                    mem.tick(now);
                    while let Some(r) = mem.pop_completion(now) {
                        done.push((now, r.id()));
                    }
                    now = now.next();
                    if skip {
                        now = now.max(mem.next_event()).min(until);
                    }
                }
            }
            assert!(mem.is_idle() || mem.next_event() != Cycle::NEVER);
            (done, mem.take_trace(), format!("{:?}", mem.stats()))
        };
        let (every, skipping) = (run(false), run(true));
        assert!(!every.0.is_empty());
        assert_eq!(every.0, skipping.0);
        assert_eq!(format!("{:?}", every.1), format!("{:?}", skipping.1));
        assert_eq!(every.2, skipping.2);
    }

    #[test]
    fn no_request_is_lost_or_duplicated() {
        let mut mem = MemorySystem::new(DramConfig::paper());
        let mut submitted = Vec::new();
        let mut now = Cycle::ZERO;
        let mut completed = Vec::new();
        for i in 0..200u64 {
            // Submit in bursts; respect backpressure.
            let req = MemRequest::read(i * 24, 24, TrafficClass::Other);
            if let Ok(id) = mem.request(now, req) {
                submitted.push(id);
            }
            mem.tick(now);
            while let Some(r) = mem.pop_completion(now) {
                completed.push(r.id());
            }
            now = now.next();
        }
        for _ in 0..100_000 {
            mem.tick(now);
            while let Some(r) = mem.pop_completion(now) {
                completed.push(r.id());
            }
            if mem.is_idle() {
                break;
            }
            now = now.next();
        }
        completed.sort();
        let mut expected = submitted.clone();
        expected.sort();
        assert_eq!(completed, expected);
    }
}
