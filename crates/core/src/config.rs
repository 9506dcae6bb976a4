//! Accelerator configuration (Table III and §V parameters).

use gp_mem::{CacheConfig, DramConfig};

/// Geometry of the in-place coalescing event queue (§IV-D).
///
/// A vertex's slice-local index `l` maps to a slot in column-bin-row order:
/// `col = l % cols`, `bin = (l / cols) % bins`, `row = l / (cols·bins)` —
/// consecutive vertices share a row (drained together, preserving spatial
/// locality for the prefetcher) while consecutive rows spread across bins
/// (spreading graph clusters over bins, §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Independent bins, each with its own insertion pipeline.
    pub bins: usize,
    /// Rows per bin (on-chip RAM block granularity; 4096 in the paper).
    pub rows: usize,
    /// Slots per row ("wide rows so that many events can be read in one
    /// cycle").
    pub cols: usize,
}

impl QueueConfig {
    /// Total vertex capacity of the queue (slots).
    pub fn capacity(&self) -> usize {
        self.bins * self.rows * self.cols
    }

    /// The paper's 64 MB queue at 8-byte events: 64 bins × 4096 rows ×
    /// 32 columns ≈ 8.4 M slots.
    pub fn paper() -> Self {
        QueueConfig {
            bins: 64,
            rows: 4096,
            cols: 32,
        }
    }
}

/// Parameters of the shard-parallel execution engine
/// ([`GraphPulse::run_parallel`](crate::GraphPulse::run_parallel)).
///
/// The graph is partitioned into *shards* (one resident slice each, with
/// its own event queue and memory model); shards run independently for
/// `epoch_cycles` simulated cycles and exchange cross-shard events at the
/// epoch barrier in a deterministic merge order. The shard structure is
/// derived from the configuration and graph only — **never** from
/// `workers` — so any worker count produces bit-identical vertex values,
/// cycle counts, and statistics; `workers` only controls how many OS
/// threads step the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads stepping the shards (affects wall-clock only).
    pub workers: usize,
    /// Simulated cycles per epoch between event-exchange barriers.
    pub epoch_cycles: u64,
    /// Shard-count override: `0` derives the count from the queue
    /// capacity (one shard per slice), `k > 0` forces `k` contiguous
    /// shards regardless of queue size.
    pub shards: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 1,
            epoch_cycles: 1024,
            shards: 0,
        }
    }
}

impl ParallelConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("need at least one worker thread".into());
        }
        if self.epoch_cycles == 0 {
            return Err("epoch length must be nonzero".into());
        }
        Ok(())
    }
}

/// Order in which the scheduler drains queue bins within a round.
///
/// The paper drains round-robin but notes "other application-informed
/// policies are possible" (§IV-C); `OccupancyFirst` is one such policy:
/// visit the fullest bins first, which front-loads dense blocks and feeds
/// the prefetcher longer sequential runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Fixed bin order 0..N every round (the paper's default).
    #[default]
    RoundRobin,
    /// Bins sorted by descending occupancy at the start of each round.
    OccupancyFirst,
}

/// Full accelerator configuration.
///
/// Presets: [`AcceleratorConfig::optimized`] (the paper's
/// "GraphPulse+Optimizations": 8 processors × 4 generation streams with
/// prefetching), [`AcceleratorConfig::baseline`] ("GraphPulse-Baseline":
/// 256 processors, demand memory access, single generation stream), and
/// [`AcceleratorConfig::small_test`] (a tiny machine for fast unit tests).
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Accelerator clock in GHz (1.0 in Table III).
    pub clock_ghz: f64,
    /// Number of event processors.
    pub processors: usize,
    /// Generation streams per processor (share one edge cache per unit).
    pub gen_streams: usize,
    /// Event queue geometry.
    pub queue: QueueConfig,
    /// Depth of the coalescer pipeline (4-stage FPA in the paper).
    pub coalescer_depth: u64,
    /// Entries in each bin's network-side input FIFO.
    pub bin_input_depth: usize,
    /// Entries in each processor's input buffer.
    pub input_buffer: usize,
    /// Entries in each processor's generation buffer.
    pub gen_buffer: usize,
    /// Crossbar ports shared by the generation streams.
    pub crossbar_ports: usize,
    /// Vertex-property scratchpad capacity in 64-byte lines per processor.
    pub scratchpad_lines: usize,
    /// Whether the vertex scratchpad prefetcher is enabled (§V).
    pub prefetch: bool,
    /// Edge prefetch lookahead N (N-block prefetching, §V).
    pub edge_prefetch_depth: u64,
    /// Edge cache geometry per generation unit.
    pub edge_cache: CacheConfig,
    /// Event-processor apply-pipeline depth, cycles.
    pub process_latency: u64,
    /// Bytes per vertex property in memory.
    pub vertex_bytes: u32,
    /// Bytes per edge record in memory (4 unweighted, 8 weighted).
    pub edge_bytes: u32,
    /// Bytes per event when spilled off-chip.
    pub event_bytes: u32,
    /// DRAM model configuration.
    pub dram: DramConfig,
    /// Bin drain order within a round.
    pub scheduling: SchedulingPolicy,
    /// Hard safety cap on simulated cycles.
    pub max_cycles: u64,
    /// Shard-parallel runner parameters (ignored by
    /// [`GraphPulse::run`](crate::GraphPulse::run)).
    pub parallel: ParallelConfig,
}

impl AcceleratorConfig {
    /// The paper's optimized configuration (Table III + §V): 8 processors
    /// at 1 GHz, 4 generation streams each, prefetching, 64 MB queue,
    /// 4 × DDR3-17 GB/s.
    pub fn optimized() -> Self {
        AcceleratorConfig {
            clock_ghz: 1.0,
            processors: 8,
            gen_streams: 4,
            queue: QueueConfig::paper(),
            coalescer_depth: 4,
            bin_input_depth: 8,
            input_buffer: 64,
            gen_buffer: 16,
            crossbar_ports: 16,
            scratchpad_lines: 16, // 1 KB per processor at 64-byte lines
            prefetch: true,
            edge_prefetch_depth: 4,
            edge_cache: CacheConfig::edge_cache(),
            process_latency: 4,
            vertex_bytes: 8,
            edge_bytes: 4,
            event_bytes: 8,
            dram: DramConfig::paper(),
            scheduling: SchedulingPolicy::RoundRobin,
            max_cycles: u64::MAX / 2,
            parallel: ParallelConfig::default(),
        }
    }

    /// The paper's unoptimized baseline: 256 processors, demand vertex
    /// reads (no scratchpad prefetch), one generation stream per processor,
    /// minimal edge cache.
    pub fn baseline() -> Self {
        AcceleratorConfig {
            processors: 256,
            gen_streams: 1,
            prefetch: false,
            input_buffer: QueueConfig::paper().cols,
            edge_cache: CacheConfig { sets: 1, ways: 2 },
            edge_prefetch_depth: 1,
            ..Self::optimized()
        }
    }

    /// A small machine for unit tests: 2 processors, tiny queue
    /// (1024-vertex capacity), fast to simulate in debug builds.
    pub fn small_test() -> Self {
        AcceleratorConfig {
            processors: 2,
            gen_streams: 2,
            queue: QueueConfig {
                bins: 4,
                rows: 32,
                cols: 8,
            },
            crossbar_ports: 4,
            max_cycles: 200_000_000,
            ..Self::optimized()
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_ghz <= 0.0 {
            return Err("clock must be positive".into());
        }
        if self.processors == 0 || self.gen_streams == 0 {
            return Err("need at least one processor and one stream".into());
        }
        if self.queue.bins == 0 || self.queue.rows == 0 || self.queue.cols == 0 {
            return Err("queue dimensions must be nonzero".into());
        }
        if self.coalescer_depth == 0 || self.process_latency == 0 {
            return Err("pipeline depths must be nonzero".into());
        }
        if self.crossbar_ports == 0 {
            return Err("need at least one crossbar port".into());
        }
        // A zero-entry buffer never takes an event or a task, so the run
        // would spin to `max_cycles`; a zero-line scratchpad or a cache
        // with no sets or ways cannot be built.
        if self.bin_input_depth == 0 || self.gen_buffer == 0 {
            return Err("bin input FIFO and generation buffer need an entry".into());
        }
        if self.scratchpad_lines == 0 {
            return Err("the vertex scratchpad needs a line".into());
        }
        let cache = self.edge_cache;
        if !cache.sets.is_power_of_two() || cache.ways == 0 {
            return Err(format!(
                "edge cache needs a nonzero power-of-two set count and a way, got {} x {}",
                cache.sets, cache.ways
            ));
        }
        if self.input_buffer < self.queue.cols {
            return Err(format!(
                "input buffer ({}) must hold at least one drained row ({} events)",
                self.input_buffer, self.queue.cols
            ));
        }
        if self.vertex_bytes == 0 || self.edge_bytes == 0 || self.event_bytes == 0 {
            return Err("record sizes must be nonzero".into());
        }
        self.parallel.validate()?;
        self.dram.validate()
    }

    /// Simulated seconds for `cycles` at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }

    /// Total generation streams across the machine.
    pub fn total_streams(&self) -> usize {
        self.processors * self.gen_streams
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        AcceleratorConfig::optimized().validate().unwrap();
        AcceleratorConfig::baseline().validate().unwrap();
        AcceleratorConfig::small_test().validate().unwrap();
    }

    #[test]
    fn paper_queue_capacity_is_millions_of_slots() {
        assert_eq!(QueueConfig::paper().capacity(), 64 * 4096 * 32);
    }

    #[test]
    fn baseline_differs_from_optimized_as_in_the_paper() {
        let opt = AcceleratorConfig::optimized();
        let base = AcceleratorConfig::baseline();
        assert_eq!(opt.processors, 8);
        assert_eq!(base.processors, 256);
        assert!(opt.prefetch && !base.prefetch);
        assert_eq!(base.gen_streams, 1);
    }

    #[test]
    fn validation_catches_tiny_input_buffer() {
        let mut c = AcceleratorConfig::small_test();
        c.input_buffer = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn seconds_conversion_uses_clock() {
        let c = AcceleratorConfig::optimized();
        assert!((c.cycles_to_seconds(2_000_000_000) - 2.0).abs() < 1e-12);
    }
}
