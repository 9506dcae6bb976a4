//! The turbo executor: SoA coalescing pool + prioritized bucket draining,
//! optionally sharded across worker threads with a deterministic
//! cross-shard merge.
//!
//! # Scheduling
//!
//! [`key_of`] quantizes an urgency to one of [`KEY_SPACE`] keys, so the
//! priority queue is an array of that many buckets indexed by the key —
//! the software shape of the paper's direct-mapped event queue (§IV): a
//! vertex's entry has one place to go and buckets are swept in ascending
//! key order, with no search structure on the path. An occupancy bitmap
//! finds the next non-empty bucket; a re-scheduled vertex leaves its old
//! entry behind, to be skipped when that bucket drains (lazy deletion).
//!
//! # Sharded execution
//!
//! With [`TurboConfig::shards`] > 1 the dense event pool and the bucket
//! array are partitioned by contiguous vertex range: shard `i` owns
//! vertices `[i*B, (i+1)*B)` for block size `B = ceil(n / shards)`.
//! Execution proceeds in global *rounds*: each round drains the smallest
//! key occupied on **any** shard (every shard's cursor moves to that key
//! first, so a deposit asking for an earlier key lands in the same bucket
//! everywhere), and every delta propagated during the round is buffered
//! in a per-target-shard outbox instead of being deposited immediately.
//! At the end of the round the outboxes are merged in canonical `(bucket,
//! shard, seq)` order — ascending source shard, batch order within a
//! shard — which, because shards own contiguous ranges and batches are
//! vertex-sorted, is exactly ascending global source vertex. The same
//! discipline (and the same argument) as the shard-parallel cycle
//! engine's inbox merge.
//!
//! Because the round schedule, the deposit order, and the cursor are all
//! functions of the global key sequence alone, the outcome —
//! values, every counter, the round log — is bit-identical for any shard
//! count, including 1. A sequential driver and a scoped-thread driver
//! execute the identical per-round steps; the threaded driver is used
//! when `shards > 1` and no fault is injected.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};

use gp_algorithms::DeltaAlgorithm;
use gp_graph::{GraphView, VertexId};

use crate::priority::{key_of, KEY_SPACE};

/// Run options for [`run_turbo`]; none of them changes the values or the
/// counters of a clean run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TurboConfig {
    /// Vertex shards (0 and 1 both mean single-shard). Shards drain on
    /// worker threads; the outcome is bit-identical for any value.
    pub shards: usize,
    /// Record a per-round log (key, drained, processed) in the outcome.
    /// Off by default: the log costs memory proportional to the round
    /// count and is only needed by determinism tests and diagnostics.
    pub record_rounds: bool,
    /// Deterministic stale-entry fault injection (`None` = clean run).
    /// Faulted runs always use the sequential driver so the victim scan
    /// stays a plain global sweep.
    pub fault: Option<StaleFault>,
}

/// A deterministic stale-entry corruption in the scheduling pool: after
/// the `after_rounds`-th drained bucket, one active vertex's `enq_key`
/// tag (chosen by `pick` among the vertices active at that moment, in
/// index order) gets its top bit flipped — an SRAM upset in the
/// enqueue-key column. The vertex's bucket entry then always looks stale
/// and is lazily skipped, so its pending delta is silently dropped unless
/// a later deposit to the same vertex re-schedules it (which heals the
/// tag and loses nothing). A dropped delta leaves the pool entry active
/// after the last bucket drained, which [`TurboOutcome::check_lost_events`]
/// detects — the fault can therefore delay work or be caught, but never
/// corrupt a result silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleFault {
    /// Drained-bucket count after which the corruption fires.
    pub after_rounds: u64,
    /// Selects the victim among the vertices active at the trigger point.
    pub pick: u64,
}

impl Default for TurboConfig {
    fn default() -> Self {
        TurboConfig {
            shards: 1,
            record_rounds: false,
            fault: None,
        }
    }
}

/// One drained priority bucket in the optional round log.
///
/// With shards, one entry covers the whole global round: `drained` and
/// `processed` sum over every shard that had the round's key resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStat {
    /// Key (quantized urgency class) of the bucket.
    pub key: u64,
    /// Entries drained from the bucket, including stale ones.
    pub drained: u64,
    /// Events actually applied (drained minus stale skips).
    pub processed: u64,
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
    /// Bucket entries skipped because their vertex was re-scheduled into a
    /// more urgent bucket (lazy deletion) or already drained.
    pub stale_entries: u64,
    /// Times a pending vertex moved to a more urgent bucket after a
    /// coalesce made its delta bigger.
    pub reschedules: u64,
    /// Global rounds (distinct key visits; a bucket drained on several
    /// shards in the same round counts once).
    pub rounds: u64,
    /// Vertices whose pending delta was still active when the last bucket
    /// had drained — events the scheduler lost. Always empty on a clean
    /// run; the in-engine lost-event check
    /// ([`TurboOutcome::check_lost_events`]) fires on any entry.
    pub orphaned: Vec<u32>,
    /// Per-round stats; empty unless [`TurboConfig::record_rounds`].
    pub round_log: Vec<RoundStat>,
}

impl TurboOutcome {
    /// Fraction of generated events absorbed by in-place coalescing.
    #[must_use]
    pub fn coalesce_rate(&self) -> f64 {
        if self.events_generated == 0 {
            0.0
        } else {
            self.events_coalesced as f64 / self.events_generated as f64
        }
    }

    /// In-engine lost-event check: once every bucket is empty, every
    /// generated event must have been coalesced away or processed — an
    /// event-pool entry still active means the scheduler dropped a delta
    /// (stale-tag corruption is the canonical cause).
    ///
    /// # Errors
    ///
    /// Returns a message naming the orphan count, a sample of victim
    /// vertices, and the violated conservation identity.
    pub fn check_lost_events(&self) -> Result<(), String> {
        if self.orphaned.is_empty() {
            return Ok(());
        }
        let sample: Vec<u32> = self.orphaned.iter().copied().take(8).collect();
        Err(format!(
            "turbo lost {} event(s): pool entries still active after wheel \
             exhaustion at vertices {:?}{} — conservation violated: \
             generated {} != coalesced {} + processed {} (orphaned {})",
            self.orphaned.len(),
            sample,
            if self.orphaned.len() > sample.len() {
                ", …"
            } else {
                ""
            },
            self.events_generated,
            self.events_coalesced,
            self.events_processed,
            self.orphaned.len(),
        ))
    }

    /// Renders the counters (and round log, if recorded) as a stable,
    /// deterministic text block — two identical runs must produce
    /// byte-identical output, which the determinism tests rely on.
    #[must_use]
    pub fn render_log(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "turbo: rounds={} processed={} generated={} coalesced={} \
             stale={} resched={} orphaned={}\n",
            self.rounds,
            self.events_processed,
            self.events_generated,
            self.events_coalesced,
            self.stale_entries,
            self.reschedules,
            self.orphaned.len(),
        );
        for r in &self.round_log {
            let _ = writeln!(
                s,
                "round key={} drained={} processed={}",
                r.key, r.drained, r.processed
            );
        }
        s
    }
}

/// The dense per-vertex event pool, struct-of-arrays, indexed by
/// shard-local vertex offset.
///
/// At most one pending delta per vertex ever exists (the accelerator's
/// in-place coalescing invariant); `active` marks occupancy and `enq_key`
/// remembers which bucket owns the vertex so later, staler bucket entries
/// can be skipped lazily.
struct Pool<A: DeltaAlgorithm> {
    pending: Vec<A::Delta>,
    active: Vec<bool>,
    enq_key: Vec<u64>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    processed: u64,
    generated: u64,
    coalesced: u64,
    stale: u64,
    reschedules: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.processed += o.processed;
        self.generated += o.generated;
        self.coalesced += o.coalesced;
        self.stale += o.stale;
        self.reschedules += o.reschedules;
    }
}

/// Per-target-shard delta buffers: `outbox[s]` holds the `(vertex,
/// delta)` pairs a drain produced for shard `s`, in propagation order.
type Outbox<D> = Vec<Vec<(u32, D)>>;

/// Words in a shard's bucket-occupancy bitmap, one bit per key.
const KEY_WORDS: usize = (KEY_SPACE / 64) as usize;

/// One vertex shard: its slice of the event pool and its priority queue —
/// one bucket of vertex ids per quantized key, a bitmap of the non-empty
/// buckets, and the cursor `now` at the current global round key. No bit
/// below `now` is ever set: rounds visit keys in ascending order and a
/// deposit never files below the cursor.
struct Shard<A: DeltaAlgorithm> {
    /// First global vertex id this shard owns.
    start: u32,
    /// Number of vertices owned.
    len: usize,
    /// Global routing block size `B`: vertex `v` belongs to shard
    /// `v / B`. Identical on every shard.
    block: usize,
    pool: Pool<A>,
    /// `buckets[k]`: owned vertices scheduled at key `k`, in deposit order,
    /// stale entries included.
    buckets: Vec<Vec<u32>>,
    /// Bit `k` is set iff `buckets[k]` is non-empty.
    occupied: [u64; KEY_WORDS],
    /// Key of the round in progress; deposits asking for an earlier key
    /// land here and drain in the next round.
    now: u64,
    identity: A::Delta,
    stats: Counters,
}

impl<A: DeltaAlgorithm> Shard<A> {
    fn new(algo: &A, start: u32, len: usize, block: usize) -> Self {
        let identity = algo.identity_delta();
        Shard {
            start,
            len,
            block,
            pool: Pool {
                pending: vec![identity; len],
                active: vec![false; len],
                enq_key: vec![0; len],
            },
            buckets: vec![Vec::new(); KEY_SPACE as usize],
            occupied: [0; KEY_WORDS],
            now: 0,
            identity,
            stats: Counters::default(),
        }
    }

    /// Smallest occupied key on this shard, if any: the shard's candidate
    /// for the next global round.
    fn next_key(&self) -> Option<u64> {
        let mut word = (self.now / 64) as usize;
        let mut bits = self.occupied[word] & (u64::MAX << (self.now % 64));
        while bits == 0 {
            word += 1;
            bits = *self.occupied.get(word)?;
        }
        Some(word as u64 * 64 + u64::from(bits.trailing_zeros()))
    }

    /// Deposits `delta` for the owned vertex `target`: coalesces into the
    /// pending slot and (re-)schedules the vertex in the bucket of its
    /// quantized urgency, or in the current round's bucket if that key has
    /// already been passed. The cursor sits at the global round key on
    /// every shard, so the choice does not depend on the partition.
    fn deposit(&mut self, algo: &A, target: u32, delta: A::Delta) {
        self.stats.generated += 1;
        let t = (target - self.start) as usize;
        let merged = if self.pool.active[t] {
            self.stats.coalesced += 1;
            self.pool.pending[t] = algo.coalesce(self.pool.pending[t], delta);
            self.pool.pending[t]
        } else {
            self.pool.pending[t] = delta;
            delta
        };
        let key = key_of(algo.urgency(merged)).max(self.now);
        if !self.pool.active[t] {
            self.pool.active[t] = true;
        } else if key >= self.pool.enq_key[t] {
            // Already scheduled at least as urgently; the existing entry
            // stands.
            return;
        } else {
            // Move to the more urgent bucket; the old entry becomes stale
            // and is skipped on drain (lazy deletion).
            self.stats.reschedules += 1;
        }
        self.pool.enq_key[t] = key;
        self.buckets[key as usize].push(target);
        self.occupied[(key / 64) as usize] |= 1 << (key % 64);
    }

    /// Opens the global round `key` on this shard: moves the cursor there
    /// and drains the key's bucket (a no-op returning zeros if it is empty
    /// here), applying deltas to the shard's `values` slice and buffering
    /// every propagated delta into `outbox[target_shard]` instead of
    /// depositing. The bucket is walked in vertex-id order: that keeps the
    /// CSR walk monotone, and it is what makes a round's propagation order
    /// — hence the merge order, hence every later coalesce — the same for
    /// any shard count. Returns `(drained, processed)`.
    fn drain_round<G: GraphView>(
        &mut self,
        algo: &A,
        graph: &G,
        key: u64,
        values: &mut [A::Value],
        outbox: &mut [Vec<(u32, A::Delta)>],
    ) -> (u64, u64) {
        debug_assert!(self.next_key().is_none_or(|k| k >= key));
        self.now = key;
        self.occupied[(key / 64) as usize] &= !(1 << (key % 64));
        let mut batch = std::mem::take(&mut self.buckets[key as usize]);
        batch.sort_unstable();
        let drained = batch.len() as u64;
        let mut applied = 0u64;
        for raw_v in batch {
            let vi = (raw_v - self.start) as usize;
            if !self.pool.active[vi] || self.pool.enq_key[vi] != key {
                self.stats.stale += 1;
                continue;
            }
            self.pool.active[vi] = false;
            let delta = std::mem::replace(&mut self.pool.pending[vi], self.identity);
            self.stats.processed += 1;
            applied += 1;
            let u = VertexId::new(raw_v);
            let old = values[vi];
            let new = algo.reduce(old, delta);
            values[vi] = new;
            if let Some(basis) = algo.propagation_basis(old, new) {
                let row = graph.out_edges(u);
                let degree = row.len() as u32;
                for edge in row {
                    if let Some(d) = algo.propagate(basis, u, degree, edge) {
                        outbox[edge.other.index() / self.block].push((edge.other.get(), d));
                    }
                }
            }
        }
        (drained, applied)
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

/// Flips the top `enq_key` bit of the `pick`-th active vertex across all
/// shards in global index order — the [`StaleFault`] upset.
fn inject_stale_fault<A: DeltaAlgorithm>(shards: &mut [Shard<A>], pick: u64) {
    let active_count: usize = shards
        .iter()
        .map(|s| s.pool.active.iter().filter(|&&a| a).count())
        .sum();
    if active_count == 0 {
        return;
    }
    let mut kth = (pick % active_count as u64) as usize;
    for shard in shards.iter_mut() {
        for (i, &a) in shard.pool.active.iter().enumerate() {
            if a {
                if kth == 0 {
                    shard.pool.enq_key[i] ^= 1 << 63;
                    return;
                }
                kth -= 1;
            }
        }
    }
    unreachable!("kth < active_count");
}

/// Sequential round driver: the reference implementation of the global
/// round protocol, also the only driver that supports fault injection.
fn drive_sequential<A: DeltaAlgorithm, G: GraphView>(
    algo: &A,
    graph: &G,
    cfg: &TurboConfig,
    shards: &mut [Shard<A>],
    slices: &mut [&mut [A::Value]],
) -> (u64, Vec<RoundStat>) {
    let s_count = shards.len();
    let mut outboxes: Vec<Outbox<A::Delta>> =
        (0..s_count).map(|_| vec![Vec::new(); s_count]).collect();
    let mut rounds = 0u64;
    let mut round_log = Vec::new();
    let mut fault_armed = cfg.fault.is_some();
    while let Some(k) = shards.iter().filter_map(Shard::next_key).min() {
        rounds += 1;
        let mut drained = 0u64;
        let mut processed = 0u64;
        for ((shard, slice), outbox) in shards
            .iter_mut()
            .zip(slices.iter_mut())
            .zip(outboxes.iter_mut())
        {
            for lane in outbox.iter_mut() {
                lane.clear();
            }
            let (d, p) = shard.drain_round(algo, graph, k, slice, outbox);
            drained += d;
            processed += p;
        }
        // Canonical merge: ascending source shard, buffer order within —
        // i.e. ascending global source vertex.
        for outbox in &outboxes {
            for (dst, entries) in outbox.iter().enumerate() {
                shards[dst].absorb(algo, entries);
            }
        }
        if cfg.record_rounds {
            round_log.push(RoundStat {
                key: k,
                drained,
                processed,
            });
        }
        if fault_armed {
            let f = cfg.fault.expect("fault_armed implies a fault plan");
            if rounds >= f.after_rounds {
                fault_armed = false;
                // SRAM upset in the enqueue-key column: flip the top bit
                // of one active vertex's tag. Real keys never have it set,
                // so the vertex's bucket entry now always reads as stale.
                inject_stale_fault(shards, f.pick);
            }
        }
    }
    (rounds, round_log)
}

/// Scoped-thread round driver: one worker per shard, three barriers per
/// round (key election → drain → merge). Executes the identical per-round
/// steps as [`drive_sequential`], in the identical order, so the two are
/// bit-equivalent — the per-round protocol is:
///
/// 1. publish own next key, barrier, read the global minimum `k` (every
///    worker computes the same minimum from the same published values);
/// 2. move own cursor to `k`, drain own bucket into per-target-shard
///    outboxes (write lock on own outbox only), barrier;
/// 3. absorb lane `i` of every outbox in ascending source-shard order
///    (read locks), barrier, repeat.
fn drive_threaded<A: DeltaAlgorithm, G: GraphView + Sync>(
    algo: &A,
    graph: &G,
    cfg: &TurboConfig,
    shards: &mut [Shard<A>],
    slices: &mut [&mut [A::Value]],
) -> (u64, Vec<RoundStat>) {
    let s_count = shards.len();
    let barrier = Barrier::new(s_count);
    let next_keys: Vec<AtomicU64> = (0..s_count).map(|_| AtomicU64::new(u64::MAX)).collect();
    let outboxes: Vec<RwLock<Outbox<A::Delta>>> = (0..s_count)
        .map(|_| RwLock::new(vec![Vec::new(); s_count]))
        .collect();
    let mut worker_stats: Vec<(u64, Vec<RoundStat>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(s_count);
        for (i, (shard, slice)) in shards.iter_mut().zip(slices.iter_mut()).enumerate() {
            let barrier = &barrier;
            let next_keys = &next_keys;
            let outboxes = &outboxes;
            handles.push(scope.spawn(move || {
                let mut rounds = 0u64;
                let mut log = Vec::new();
                loop {
                    next_keys[i].store(shard.next_key().unwrap_or(u64::MAX), Ordering::Relaxed);
                    barrier.wait();
                    // Between this barrier and the merge barrier no worker
                    // writes next_keys, so every worker reads the same
                    // minimum (the barrier orders the stores before the
                    // loads).
                    let k = next_keys
                        .iter()
                        .map(|a| a.load(Ordering::Relaxed))
                        .min()
                        .expect("at least one shard");
                    if k == u64::MAX {
                        break;
                    }
                    rounds += 1;
                    let (drained, processed) = {
                        let mut outbox = outboxes[i].write().expect("turbo outbox lock poisoned");
                        for lane in outbox.iter_mut() {
                            lane.clear();
                        }
                        shard.drain_round(algo, graph, k, slice, &mut outbox)
                    };
                    barrier.wait();
                    for src in outboxes {
                        let src = src.read().expect("turbo outbox lock poisoned");
                        shard.absorb(algo, &src[i]);
                    }
                    if cfg.record_rounds {
                        log.push(RoundStat {
                            key: k,
                            drained,
                            processed,
                        });
                    }
                    barrier.wait();
                }
                (rounds, log)
            }));
        }
        for handle in handles {
            worker_stats.push(handle.join().expect("turbo shard worker panicked"));
        }
    });
    // Every worker ran the same number of global rounds; the per-round log
    // entries sum each worker's contribution to the round's bucket.
    let rounds = worker_stats.first().map_or(0, |(r, _)| *r);
    debug_assert!(worker_stats.iter().all(|(r, _)| *r == rounds));
    let mut round_log = worker_stats.pop().map_or_else(Vec::new, |(_, log)| log);
    for (_, log) in &worker_stats {
        debug_assert_eq!(log.len(), round_log.len());
        for (merged, part) in round_log.iter_mut().zip(log) {
            debug_assert_eq!(merged.key, part.key);
            merged.drained += part.drained;
            merged.processed += part.processed;
        }
    }
    (rounds, round_log)
}

/// Runs `algo` on `graph` with the turbo executor.
///
/// Semantically equivalent to
/// [`run_sequential`](gp_algorithms::engine::run_sequential) — same
/// coalescing invariant, same local-termination rule — but processes
/// events in delta-magnitude priority order (§V), one quantized-urgency
/// bucket per round, and walks each drained bucket in vertex-id order for
/// cache-friendly CSR access. Deterministic: identical inputs give
/// bit-identical values, counters, and round logs, for **any**
/// [`TurboConfig::shards`] count (see the module docs for the argument).
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
    // would: every cursor still sits at key 0, the global floor.
    for &(v, d) in seeds {
        shards[v.index() / block].deposit(algo, v.get(), d);
    }

    let (rounds, round_log) = {
        let mut slices: Vec<&mut [A::Value]> = Vec::with_capacity(s_count);
        let mut rest: &mut [A::Value] = values;
        for shard in &shards {
            let (head, tail) = rest.split_at_mut(shard.len);
            slices.push(head);
            rest = tail;
        }
        if s_count > 1 && cfg.fault.is_none() {
            drive_threaded(algo, graph, cfg, &mut shards, &mut slices)
        } else {
            drive_sequential(algo, graph, cfg, &mut shards, &mut slices)
        }
    };

    let mut stats = Counters::default();
    for shard in &shards {
        stats.add(&shard.stats);
    }
    let orphaned: Vec<u32> = shards
        .iter()
        .flat_map(|s| {
            s.pool
                .active
                .iter()
                .enumerate()
                .filter(|(_, &a)| a)
                .map(|(i, _)| s.start + i as u32)
        })
        .collect();

    TurboOutcome {
        values: values.iter().map(|&v| algo.value_to_f64(v)).collect(),
        events_processed: stats.processed,
        events_generated: stats.generated,
        events_coalesced: stats.coalesced,
        stale_entries: stats.stale,
        reschedules: stats.reschedules,
        rounds,
        orphaned,
        round_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_algorithms::engine::run_sequential;
    use gp_algorithms::{
        same_bits, Adsorption, AdsorptionParams, Bfs, ConnectedComponents, PageRankDelta, Sssp,
        Sswp,
    };
    use gp_graph::generators::{erdos_renyi, rmat, RmatConfig, WeightMode};
    use gp_graph::{EdgeRef, GraphBuilder};

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

        let t = run_turbo(&Bfs::new(root), &g, &cfg);
        let s = run_sequential(&Bfs::new(root), &g);
        assert_eq!(t.values, s.values, "bfs must be bit-exact");

        let t = run_turbo(&ConnectedComponents::new(), &g, &cfg);
        let s = run_sequential(&ConnectedComponents::new(), &g);
        assert_eq!(t.values, s.values, "cc must be bit-exact");

        let t = run_turbo(&Sswp::new(root), &g, &cfg);
        let s = run_sequential(&Sswp::new(root), &g);
        assert_eq!(t.values, s.values, "sswp must be bit-exact");
    }

    #[test]
    fn adsorption_within_tolerance_of_golden() {
        use gp_algorithms::normalize_inbound;
        let g = normalize_inbound(&erdos_renyi(200, 1_600, WeightMode::Uniform(0.5, 2.0), 7));
        let ads = Adsorption::new(AdsorptionParams::random(200, 7), 1e-9);
        let turbo = run_turbo(&ads, &g, &TurboConfig::default());
        let golden = run_sequential(&ads, &g);
        assert!(max_abs_diff(&turbo.values, &golden.values) < ads.comparison_tolerance());
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
        let cfg = TurboConfig {
            record_rounds: true,
            ..TurboConfig::default()
        };
        let a = run_turbo(&pr, &g, &cfg);
        let b = run_turbo(&pr, &g, &cfg);
        assert!(same_bits(&a.values, &b.values));
        assert_eq!(a.render_log(), b.render_log());
    }

    #[test]
    fn sharded_runs_are_bit_identical_to_single_shard() {
        let g = rmat(&RmatConfig::graph500(256, 2_048), 21);
        let pr = PageRankDelta::new(0.85, 1e-7);
        let base = run_turbo(
            &pr,
            &g,
            &TurboConfig {
                record_rounds: true,
                ..TurboConfig::default()
            },
        );
        for shards in [2, 3, 4, 7] {
            let out = run_turbo(
                &pr,
                &g,
                &TurboConfig {
                    shards,
                    record_rounds: true,
                    ..TurboConfig::default()
                },
            );
            assert_eq!(
                out.render_log(),
                base.render_log(),
                "{shards} shards: log diverged"
            );
            assert!(
                same_bits(&out.values, &base.values),
                "{shards} shards: values diverged"
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

    /// Sum algorithm whose urgency is the pending delta itself, so a test
    /// chooses the bucket of every deposit; propagates `Δ · weight`.
    struct Probe;

    impl DeltaAlgorithm for Probe {
        type Value = f64;
        type Delta = f64;
        fn name(&self) -> &'static str {
            "probe"
        }
        fn init_value(&self, _: VertexId) -> f64 {
            0.0
        }
        fn identity_delta(&self) -> f64 {
            0.0
        }
        fn initial_delta(&self, _: VertexId) -> Option<f64> {
            None
        }
        fn reduce(&self, value: f64, delta: f64) -> f64 {
            value + delta
        }
        fn coalesce(&self, a: f64, b: f64) -> f64 {
            a + b
        }
        fn propagation_basis(&self, old: f64, new: f64) -> Option<f64> {
            Some(new - old)
        }
        fn propagate(&self, basis: f64, _: VertexId, _: u32, edge: EdgeRef) -> Option<f64> {
            Some(basis * f64::from(edge.weight))
        }
        fn urgency(&self, delta: f64) -> f64 {
            delta
        }
        fn value_to_f64(&self, v: f64) -> f64 {
            v
        }
    }

    /// A single shard over `n` isolated vertices.
    fn probe_shard(n: usize) -> (Shard<Probe>, gp_graph::CsrGraph) {
        (Shard::new(&Probe, 0, n, n), GraphBuilder::new(n).build())
    }

    /// One round at `key` on a shard of isolated vertices.
    fn drain(shard: &mut Shard<Probe>, g: &gp_graph::CsrGraph, key: u64) -> (u64, u64) {
        let mut values = vec![0.0; shard.len];
        shard.drain_round(&Probe, g, key, &mut values, &mut [Vec::new()])
    }

    #[test]
    fn next_key_scans_across_words_and_to_both_ends_of_the_key_space() {
        let (mut shard, g) = probe_shard(4);
        assert_eq!(shard.next_key(), None);
        shard.deposit(&Probe, 0, 2f64.powi(960));
        assert_eq!(shard.next_key(), Some(64));
        shard.deposit(&Probe, 1, 2f64.powi(961));
        assert_eq!(shard.next_key(), Some(63));
        shard.deposit(&Probe, 2, f64::NEG_INFINITY);
        assert_eq!(drain(&mut shard, &g, 63), (1, 1));
        // Last bit of word 0 cleared with the cursor on it: the scan moves
        // on to the first bit of word 1, then to the last bit of the map.
        assert_eq!(shard.next_key(), Some(64));
        assert_eq!(drain(&mut shard, &g, 64), (1, 1));
        assert_eq!(shard.next_key(), Some(KEY_SPACE - 1));
        assert_eq!(drain(&mut shard, &g, KEY_SPACE - 1), (1, 1));
        assert_eq!(shard.next_key(), None);

        let (mut shard, g) = probe_shard(1);
        shard.deposit(&Probe, 0, f64::INFINITY);
        assert_eq!(shard.next_key(), Some(0));
        assert_eq!(drain(&mut shard, &g, 0), (1, 1));
        assert_eq!(shard.next_key(), None);
    }

    #[test]
    fn all_stale_bucket_still_clears_its_bit() {
        let (mut shard, g) = probe_shard(1);
        shard.deposit(&Probe, 0, 1.0); // key 1024
        shard.deposit(&Probe, 0, 4.0); // coalesced 5.0 -> key 1022
        assert_eq!(shard.stats.reschedules, 1);
        assert_eq!(shard.next_key(), Some(1022));
        assert_eq!(drain(&mut shard, &g, 1022), (1, 1));
        assert_eq!(shard.next_key(), Some(1024));
        assert_eq!(drain(&mut shard, &g, 1024), (1, 0));
        assert_eq!(shard.stats.stale, 1);
        assert_eq!(shard.next_key(), None);
    }

    #[test]
    fn deposit_below_the_round_key_drains_in_a_second_round_at_that_key() {
        // 0 -> 1 with weight 4: vertex 0 drains at key_of(1.0) = 1024 and
        // sends 4.0, which asks for key 1022. That key has been passed, so
        // the entry files at 1024 — on whichever shard owns vertex 1 — and
        // gets a round of its own.
        let mut b = GraphBuilder::new(2);
        b.weighted(true)
            .add_edge(VertexId::new(0), VertexId::new(1), 4.0);
        let g = b.build();
        for shards in [1, 2] {
            let mut values = [0.0; 2];
            let out = run_turbo_seeded(
                &Probe,
                &g,
                &mut values,
                &[(VertexId::new(0), 1.0)],
                &TurboConfig {
                    shards,
                    record_rounds: true,
                    ..TurboConfig::default()
                },
            );
            let round = RoundStat {
                key: 1024,
                drained: 1,
                processed: 1,
            };
            assert_eq!(out.rounds, 2, "{shards} shard(s)");
            assert_eq!(out.round_log, [round, round], "{shards} shard(s)");
            assert_eq!(out.values, [1.0, 4.0]);
            assert_eq!((out.stale_entries, out.reschedules), (0, 0));
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
        let pr = PageRankDelta::new(0.85, 1e-7);
        let cfg = TurboConfig {
            record_rounds: true,
            ..TurboConfig::default()
        };
        let out = run_turbo(&pr, &g, &cfg);
        // Every generated event is either coalesced away or eventually
        // processed; nothing is lost.
        assert_eq!(
            out.events_generated,
            out.events_coalesced + out.events_processed
        );
        assert!(out.orphaned.is_empty());
        out.check_lost_events().unwrap();
        let log_processed: u64 = out.round_log.iter().map(|r| r.processed).sum();
        let log_drained: u64 = out.round_log.iter().map(|r| r.drained).sum();
        assert_eq!(log_processed, out.events_processed);
        assert_eq!(log_drained, out.events_processed + out.stale_entries);
        assert_eq!(out.round_log.len() as u64, out.rounds);
        assert!(out.coalesce_rate() > 0.0 && out.coalesce_rate() < 1.0);
    }

    #[test]
    fn stale_fault_never_corrupts_silently() {
        // A stale-tag upset either self-heals (a later deposit to the
        // victim re-schedules it, losing nothing) or drops a delta, which
        // the lost-event check must catch. Sweep pick values so both
        // branches are exercised; no configuration may produce wrong
        // values *and* a clean check.
        let g = erdos_renyi(96, 380, WeightMode::Uniform(1.0, 6.0), 13);
        let algo = Sssp::new(VertexId::new(0));
        let golden = run_sequential(&algo, &g);
        let clean_rounds = run_turbo(&algo, &g, &TurboConfig::default()).rounds;
        assert!(clean_rounds > 4);
        let mut detected = 0;
        let mut healed = 0;
        let mut trials = 0;
        // Corrupt early (heals: plenty of later deposits overwrite the
        // tag) and late (orphans: the victim's entry is simply skipped).
        for after_rounds in [2, clean_rounds / 2, clean_rounds - 2] {
            for pick in 0..6u64 {
                trials += 1;
                let cfg = TurboConfig {
                    fault: Some(StaleFault { after_rounds, pick }),
                    ..TurboConfig::default()
                };
                let out = run_turbo(&algo, &g, &cfg);
                match out.check_lost_events() {
                    Err(msg) => {
                        detected += 1;
                        assert!(msg.contains("lost"), "{msg}");
                        assert!(msg.contains("conservation violated"), "{msg}");
                        assert_eq!(
                            out.events_generated,
                            out.events_coalesced + out.events_processed + out.orphaned.len() as u64
                        );
                    }
                    Ok(()) => {
                        healed += 1;
                        assert_eq!(out.values, golden.values, "healed run must be exact");
                    }
                }
            }
        }
        assert!(detected > 0, "no trial orphaned a delta");
        assert_eq!(detected + healed, trials);
    }

    #[test]
    fn stale_fault_is_deterministic() {
        let g = rmat(&RmatConfig::graph500(128, 1_024), 5);
        let cfg = TurboConfig {
            record_rounds: true,
            fault: Some(StaleFault {
                after_rounds: 1,
                pick: 3,
            }),
            ..TurboConfig::default()
        };
        let algo = Sssp::new(VertexId::new(0));
        let a = run_turbo(&algo, &g, &cfg);
        let b = run_turbo(&algo, &g, &cfg);
        assert_eq!(a.orphaned, b.orphaned);
        assert_eq!(a.render_log(), b.render_log());
    }
}
