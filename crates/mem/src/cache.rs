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
}

/// A tag no line can have: tags are line numbers (`addr / 64`), so the
/// largest is `u64::MAX / 64`.
const EMPTY: u64 = u64::MAX;

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
    /// One flat `sets × ways` array, set by set. A set's ways hold its
    /// resident tags in LRU order (front = MRU), then `EMPTY` up to the end.
    tags: Vec<u64>,
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
            tags: vec![EMPTY; config.sets * config.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The tag of the line containing `addr` and where its set's ways
    /// start in `tags`.
    fn locate(&self, addr: u64) -> (u64, usize) {
        let tag = addr / LINE_BYTES;
        let set = tag as usize & (self.config.sets - 1);
        (tag, set * self.config.ways)
    }

    /// Makes the line containing `addr` MRU if it is resident; whether it
    /// was.
    fn promote(&mut self, addr: u64) -> bool {
        let (tag, start) = self.locate(addr);
        let ways = &mut self.tags[start..start + self.config.ways];
        let Some(pos) = ways.iter().position(|&t| t == tag) else {
            return false;
        };
        ways.copy_within(..pos, 1);
        ways[0] = tag;
        true
    }

    /// Looks up the line containing `addr`, updating LRU state and hit/miss
    /// counters. Returns `true` on hit.
    pub fn probe(&mut self, addr: u64) -> bool {
        let hit = self.promote(addr);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// [`Cache::probe`] for a requester that only reads resident lines: a
    /// hit is counted and made MRU, a miss changes nothing — not even the
    /// miss counter. Returns `true` on hit.
    pub fn touch(&mut self, addr: u64) -> bool {
        let hit = self.promote(addr);
        self.hits += u64::from(hit);
        hit
    }

    /// Checks residency without touching LRU state or counters.
    pub fn contains(&self, addr: u64) -> bool {
        let (tag, start) = self.locate(addr);
        self.tags[start..start + self.config.ways].contains(&tag)
    }

    /// Installs the line containing `addr` as MRU, evicting the LRU way if
    /// the set is full. Idempotent for resident lines. Returns the base
    /// address of the evicted line, if one was — the only way a resident
    /// line stops being resident, so a requester that sleeps while its
    /// lines are resident knows when to look again.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        if self.promote(addr) {
            return None;
        }
        let (tag, start) = self.locate(addr);
        let ways = &mut self.tags[start..start + self.config.ways];
        let lru = ways[ways.len() - 1];
        ways.copy_within(..ways.len() - 1, 1);
        ways[0] = tag;
        (lru != EMPTY).then(|| lru * LINE_BYTES)
    }

    /// Empties the cache (slice swap).
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// Hits recorded by [`Cache::probe`] and [`Cache::touch`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`Cache::probe`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Validates structural invariants (a debug hook for verification
    /// harnesses): every set holds its tags ahead of its empty ways, no set
    /// holds a duplicate tag, and every resident tag actually indexes its
    /// set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (set, ways) in self.tags.chunks(self.config.ways).enumerate() {
            let resident = ways.iter().take_while(|&&t| t != EMPTY).count();
            if ways[resident..].iter().any(|&t| t != EMPTY) {
                return Err(format!("set {set} holds a tag behind an empty way"));
            }
            for (i, &tag) in ways[..resident].iter().enumerate() {
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

    /// The per-set `Vec` LRU the flat tag array replaced: each set's tags
    /// in LRU order (front = MRU), a hit moved to the front, a fill pushed
    /// there and the back popped when the set is full.
    struct VecLru {
        sets: usize,
        ways: usize,
        lines: Vec<Vec<u64>>,
        hits: u64,
        misses: u64,
    }

    impl VecLru {
        fn new(config: CacheConfig) -> Self {
            VecLru {
                sets: config.sets,
                ways: config.ways,
                lines: vec![Vec::new(); config.sets],
                hits: 0,
                misses: 0,
            }
        }

        fn set(&mut self, addr: u64) -> &mut Vec<u64> {
            &mut self.lines[(addr / LINE_BYTES) as usize & (self.sets - 1)]
        }

        fn probe(&mut self, addr: u64) -> bool {
            let tag = addr / LINE_BYTES;
            let set = self.set(addr);
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.insert(0, t);
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn contains(&mut self, addr: u64) -> bool {
            let tag = addr / LINE_BYTES;
            self.set(addr).contains(&tag)
        }

        /// What the generation streams did before `Cache::touch`.
        fn touch(&mut self, addr: u64) -> bool {
            self.contains(addr) && self.probe(addr)
        }

        fn fill(&mut self, addr: u64) -> Option<u64> {
            let (tag, ways) = (addr / LINE_BYTES, self.ways);
            let set = self.set(addr);
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.insert(0, t);
                return None;
            }
            let evicted = if set.len() == ways { set.pop() } else { None };
            set.insert(0, tag);
            evicted.map(|t| t * LINE_BYTES)
        }

        fn clear(&mut self) {
            self.lines.iter_mut().for_each(Vec::clear);
        }
    }

    #[test]
    fn flat_tags_match_the_per_set_vec_lru() {
        use gp_sim::rng::{Rng, StdRng};
        for sets in [1, 2, 128] {
            for ways in [1, 2, 4] {
                let config = CacheConfig { sets, ways };
                let mut rng = StdRng::seed_from_u64((sets * 8 + ways) as u64);
                let (mut flat, mut reference) = (Cache::new(config), VecLru::new(config));
                // Twice the capacity in lines, at any offset inside a line:
                // sets fill, evict, and see hits on lines filled through a
                // neighbouring address.
                let lines = (2 * sets * ways) as u64 + 3;
                for op in 0..4_000 {
                    let addr = rng.gen_range(0..lines) * LINE_BYTES + rng.gen_range(0..LINE_BYTES);
                    let what = rng.gen_range(0..100u32);
                    let (got, want) = match what {
                        0..=29 => (flat.fill(addr), reference.fill(addr)),
                        30..=54 => (
                            Some(u64::from(flat.probe(addr))),
                            Some(u64::from(reference.probe(addr))),
                        ),
                        55..=84 => (
                            Some(u64::from(flat.touch(addr))),
                            Some(u64::from(reference.touch(addr))),
                        ),
                        85..=98 => (
                            Some(u64::from(flat.contains(addr))),
                            Some(u64::from(reference.contains(addr))),
                        ),
                        _ => {
                            flat.clear();
                            reference.clear();
                            (None, None)
                        }
                    };
                    let at = format!("{sets}x{ways}, op {op} ({what}) on {addr:#x}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(
                        (flat.hits(), flat.misses()),
                        (reference.hits, reference.misses),
                        "{at}"
                    );
                }
                flat.check_invariants().unwrap();
                for line in 0..lines {
                    let addr = line * LINE_BYTES;
                    assert_eq!(flat.contains(addr), reference.contains(addr));
                }
            }
        }
    }

    #[test]
    fn touch_counts_hits_only() {
        let mut c = Cache::new(CacheConfig { sets: 1, ways: 2 });
        assert!(!c.touch(0), "a miss");
        assert_eq!((c.hits(), c.misses()), (0, 0), "is not counted");
        c.fill(0);
        c.fill(64);
        assert!(c.touch(0)); // line 0 becomes MRU
        assert_eq!((c.hits(), c.misses()), (1, 0));
        assert_eq!(c.fill(128), Some(64), "the LRU way goes");
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
