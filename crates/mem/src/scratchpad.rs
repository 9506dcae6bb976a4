//! Keyed scratchpad buffer model.

/// A bounded, explicitly managed on-chip buffer keyed by `u64` (the
/// prefetcher's vertex-property scratchpad of §V).
///
/// Unlike a cache there is no eviction policy: the owner inserts what it
/// prefetched and clears entries it consumed. Insertion beyond capacity is
/// rejected so the owner must exercise backpressure, as the hardware would.
///
/// # Examples
///
/// ```
/// use gp_mem::Scratchpad;
///
/// let mut pad = Scratchpad::new(2);
/// assert!(pad.insert(7));
/// assert!(pad.insert(8));
/// assert!(!pad.insert(9)); // full
/// assert!(pad.take(7));
/// assert!(pad.insert(9));
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    entries: Vec<u64>,
    capacity: usize,
    peak: usize,
}

impl Scratchpad {
    /// Creates a scratchpad holding at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "scratchpad capacity must be nonzero");
        Scratchpad {
            entries: Vec::with_capacity(capacity),
            capacity,
            peak: 0,
        }
    }

    /// Inserts `key`; returns `false` (rejecting it) when full. Duplicate
    /// inserts succeed without consuming extra space.
    pub fn insert(&mut self, key: u64) -> bool {
        if self.entries.contains(&key) {
            return true;
        }
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push(key);
        self.peak = self.peak.max(self.entries.len());
        true
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains(&key)
    }

    /// Removes `key`; returns whether it was present.
    pub fn take(&mut self, key: u64) -> bool {
        if let Some(pos) = self.entries.iter().position(|&k| k == key) {
            self.entries.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes everything (slice swap / round rollover).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the scratchpad holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark of occupancy (for sizing reports).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_insert_is_free() {
        let mut pad = Scratchpad::new(1);
        assert!(pad.insert(4));
        assert!(pad.insert(4));
        assert_eq!(pad.len(), 1);
        assert!(!pad.insert(5), "a new key is refused when full");
    }

    #[test]
    fn take_frees_space() {
        let mut pad = Scratchpad::new(1);
        pad.insert(1);
        assert!(!pad.insert(2));
        assert!(pad.take(1));
        assert!(!pad.take(1));
        assert!(pad.insert(2));
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut pad = Scratchpad::new(4);
        pad.insert(1);
        pad.insert(2);
        pad.insert(3);
        pad.take(1);
        pad.take(2);
        assert_eq!(pad.len(), 1);
        assert_eq!(pad.peak(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut pad = Scratchpad::new(2);
        pad.insert(1);
        pad.clear();
        assert!(pad.is_empty());
        assert!(!pad.contains(1));
    }
}
