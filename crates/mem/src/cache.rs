//! Set-associative cache timing/content model.

use crate::LINE_BYTES;

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// A small edge cache like the one in the generation units (§V):
    /// capacity = `sets × ways × 64 B`.
    pub fn edge_cache() -> Self {
        // 32 KiB: 128 sets × 4 ways × 64 B.
        CacheConfig { sets: 128, ways: 4 }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * LINE_BYTES
    }
}

/// A set-associative LRU cache over 64-byte lines.
///
/// Purely a hit/miss model: it tracks which line addresses are resident,
/// not data contents (the simulators are functional elsewhere). Misses are
/// *not* automatically filled — call [`Cache::fill`] when the corresponding
/// memory transfer completes, which models non-blocking fills faithfully.
///
/// # Examples
///
/// ```
/// use gp_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { sets: 2, ways: 1 });
/// assert!(!c.probe(0x0));
/// c.fill(0x0);
/// assert!(c.probe(0x0));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `lines[set]` holds up to `ways` tags in LRU order (front = MRU).
    lines: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways` is zero.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets.is_power_of_two() && config.sets > 0,
            "sets must be a nonzero power of two"
        );
        assert!(config.ways > 0, "ways must be nonzero");
        Cache {
            config,
            lines: vec![Vec::with_capacity(config.ways); config.sets],
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / LINE_BYTES) as usize) & (self.config.sets - 1)
    }

    fn tag_of(addr: u64) -> u64 {
        addr / LINE_BYTES
    }

    /// Looks up the line containing `addr`, updating LRU state and hit/miss
    /// counters. Returns `true` on hit.
    pub fn probe(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = Self::tag_of(addr);
        let ways = &mut self.lines[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks residency without touching LRU state or counters.
    pub fn contains(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        self.lines[set].contains(&Self::tag_of(addr))
    }

    /// Installs the line containing `addr` as MRU, evicting the LRU way if
    /// the set is full. Idempotent for resident lines. Returns the base
    /// address of the evicted line, if one was — the only way a resident
    /// line stops being resident, so a requester that sleeps while its
    /// lines are resident knows when to look again.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let set = self.set_of(addr);
        let tag = Self::tag_of(addr);
        let ways = &mut self.lines[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.insert(0, t);
            return None;
        }
        let evicted = if ways.len() == self.config.ways {
            ways.pop()
        } else {
            None
        };
        ways.insert(0, tag);
        evicted.map(|t| t * LINE_BYTES)
    }

    /// Empties the cache (slice swap).
    pub fn clear(&mut self) {
        for set in &mut self.lines {
            set.clear();
        }
    }

    /// Hits recorded by [`Cache::probe`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`Cache::probe`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all probes.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Validates structural invariants (a debug hook for verification
    /// harnesses): every set holds at most `ways` tags, no set holds a
    /// duplicate tag, and every resident tag actually indexes its set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (set, ways) in self.lines.iter().enumerate() {
            if ways.len() > self.config.ways {
                return Err(format!(
                    "set {set} holds {} tags but associativity is {}",
                    ways.len(),
                    self.config.ways
                ));
            }
            for (i, &tag) in ways.iter().enumerate() {
                if ways[..i].contains(&tag) {
                    return Err(format!("set {set} holds tag {tag:#x} twice"));
                }
                if (tag as usize) & (self.config.sets - 1) != set {
                    return Err(format!("tag {tag:#x} resident in wrong set {set}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 2 });
        assert_eq!(c.fill(0), None);
        assert_eq!(c.fill(64), None);
        assert_eq!(c.fill(128), Some(0)); // evicts line 0, and says so
        assert_eq!(c.fill(128), None); // already resident: nothing leaves
        assert!(!c.contains(0));
        assert!(c.contains(64));
        assert!(c.contains(128));
    }

    #[test]
    fn probe_updates_recency() {
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 2 });
        c.fill(0);
        c.fill(64);
        assert!(c.probe(0)); // line 0 becomes MRU
        c.fill(128); // evicts line 64
        assert!(c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 1 });
        c.fill(0); // set 0
        c.fill(64); // set 1
        assert!(c.contains(0) && c.contains(64));
        c.fill(128); // set 0 again, evicts line 0
        assert!(!c.contains(0));
        assert!(c.contains(64));
    }

    #[test]
    fn within_line_offsets_hit() {
        let mut c = Cache::new(CacheConfig::edge_cache());
        c.fill(0x1000);
        assert!(c.probe(0x1004));
        assert!(c.probe(0x103F));
        assert!(!c.probe(0x1040));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = Cache::new(CacheConfig { sets: 2, ways: 2 });
        c.fill(0);
        c.fill(64);
        c.clear();
        assert!(!c.contains(0));
        assert!(!c.contains(64));
    }

    #[test]
    fn invariants_hold_after_mixed_traffic() {
        let mut c = Cache::new(CacheConfig { sets: 4, ways: 2 });
        for i in 0..64u64 {
            c.fill(i * 40);
            c.probe(i * 24);
        }
        c.check_invariants().unwrap();
        c.clear();
        c.check_invariants().unwrap();
    }

    #[test]
    fn fill_is_idempotent() {
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 2 });
        c.fill(0);
        c.fill(0);
        c.fill(64);
        assert!(c.contains(0) && c.contains(64));
    }
}
