//! Memory-integrity primitives for the vertex-property store.
//!
//! The execution backends keep per-vertex state in a dense array — the
//! software stand-in for the accelerator's vertex-property memory. This
//! module treats that array as an unreliable memory device (the Dann et
//! al. access-pattern studies motivate stressing it deliberately) and
//! provides the pieces a detection/recovery plane needs:
//!
//! * [`Storable`] — a bits-level codec for the word types the bundled
//!   algorithms store (`f64`, `u32`, `i64`, `u64`), so checksums and fault
//!   injection operate on the stored representation, not on semantics;
//! * [`ShadowChecksum`] — an order-independent, incrementally-maintained
//!   checksum over the value array, kept per fixed-size *region* of
//!   vertices (the ECC-page analog). A write that bypasses the legitimate
//!   apply path (a bit upset) makes the recomputed region digest disagree
//!   with the shadow, which both detects the corruption and localizes it
//!   to a region — the unit of poisoned-region quarantine;
//! * [`BitUpset`] — a deterministic, seed-derived single-bit fault at the
//!   memory-model boundary.

use crate::LINE_BYTES;

/// Fibonacci-hashing multiplier used to decorrelate slot indices.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// `splitmix64` finalizer: a fast, well-mixed 64-bit permutation.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A vertex-property word as the memory system stores it: a fixed-width
/// bit pattern. Implemented for every `Value` type the bundled algorithms
/// use, so integrity checking and fault injection stay generic over the
/// [`DeltaAlgorithm`](https://docs.rs/gp-algorithms) family without
/// touching algorithm semantics.
pub trait Storable: Copy {
    /// The stored representation, widened to 64 bits.
    fn to_bits64(self) -> u64;
    /// Rebuilds the word from its stored representation.
    ///
    /// For types narrower than 64 bits the upper bits are discarded —
    /// exactly what a narrower physical word would do.
    fn from_bits64(bits: u64) -> Self;
    /// Number of meaningful bits in the stored representation (the
    /// flippable window for fault injection).
    const BITS: u32;
}

impl Storable for f64 {
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    const BITS: u32 = 64;
}

impl Storable for u64 {
    fn to_bits64(self) -> u64 {
        self
    }
    fn from_bits64(bits: u64) -> Self {
        bits
    }
    const BITS: u32 = 64;
}

impl Storable for u32 {
    fn to_bits64(self) -> u64 {
        u64::from(self)
    }
    fn from_bits64(bits: u64) -> Self {
        bits as u32
    }
    const BITS: u32 = 32;
}

impl Storable for i64 {
    fn to_bits64(self) -> u64 {
        self as u64
    }
    fn from_bits64(bits: u64) -> Self {
        bits as i64
    }
    const BITS: u32 = 64;
}

/// Contribution of slot `index` holding `bits` to its region digest.
/// Mixing the index in makes swapped values detectable; the wrapping-sum
/// combination below keeps the digest order-independent and incrementally
/// updatable.
#[must_use]
pub fn slot_digest(index: usize, bits: u64) -> u64 {
    mix64(bits ^ (index as u64).wrapping_mul(GOLDEN))
}

/// Recomputes the digest of one region of the value array from scratch.
#[must_use]
pub fn region_digest<V: Storable>(values: &[V], region: usize, region_len: usize) -> u64 {
    let start = region * region_len;
    let end = (start + region_len).min(values.len());
    values[start..end]
        .iter()
        .enumerate()
        .fold(0u64, |sum, (i, v)| {
            sum.wrapping_add(slot_digest(start + i, v.to_bits64()))
        })
}

/// An incrementally-maintained shadow checksum over a value array, kept
/// per region of `region_len` consecutive vertices.
///
/// The legitimate write path calls [`ShadowChecksum::record_write`] for
/// every update; a periodic *scrub* ([`ShadowChecksum::scrub`]) recomputes
/// every region digest from the array and compares. Any write that
/// bypassed `record_write` — a bit upset, a stray store — shows up as a
/// digest mismatch localized to its region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowChecksum {
    region_len: usize,
    sums: Vec<u64>,
}

impl ShadowChecksum {
    /// Builds the shadow for `values`, `region_len` vertices per region.
    ///
    /// # Panics
    ///
    /// Panics if `region_len == 0` (division by zero).
    #[must_use]
    pub fn new<V: Storable>(values: &[V], region_len: usize) -> Self {
        let regions = values.len().div_ceil(region_len).max(1);
        let sums = (0..regions)
            .map(|r| region_digest(values, r, region_len))
            .collect();
        ShadowChecksum { region_len, sums }
    }

    /// Vertices per region.
    #[must_use]
    pub fn region_len(&self) -> usize {
        self.region_len
    }

    /// Number of regions tracked.
    #[must_use]
    pub fn regions(&self) -> usize {
        self.sums.len()
    }

    /// The region a vertex index belongs to.
    #[must_use]
    pub fn region_of(&self, index: usize) -> usize {
        index / self.region_len
    }

    /// Records a legitimate write: slot `index` moved from `old` to `new`.
    pub fn record_write<V: Storable>(&mut self, index: usize, old: V, new: V) {
        let r = self.region_of(index);
        let sum = &mut self.sums[r];
        *sum = sum
            .wrapping_sub(slot_digest(index, old.to_bits64()))
            .wrapping_add(slot_digest(index, new.to_bits64()));
    }

    /// Recomputes every region digest from `values` and compares against
    /// the shadow.
    ///
    /// # Errors
    ///
    /// Returns the first corrupted region as `(region, message)`; the
    /// message names the region, its vertex range, and both digests.
    pub fn scrub<V: Storable>(&self, values: &[V]) -> Result<(), (usize, String)> {
        for (r, &want) in self.sums.iter().enumerate() {
            let got = region_digest(values, r, self.region_len);
            if got != want {
                let start = r * self.region_len;
                let end = (start + self.region_len).min(values.len());
                return Err((
                    r,
                    format!(
                        "memory scrub failed in region {r} (vertices {start}..{end}): \
                         stored digest {got:#018x} != shadow {want:#018x} — a write \
                         bypassed the apply path"
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Flips bit `bit` of a stored word.
#[must_use]
pub fn flip_bit<V: Storable>(v: V, bit: u32) -> V {
    V::from_bits64(v.to_bits64() ^ (1u64 << (bit % V::BITS)))
}

/// A deterministic single-bit upset: seed-derived target slot and bit.
///
/// Models an uncorrected DRAM/SRAM fault at the memory-model boundary —
/// the victim is a position in the stored array (a physical location), not
/// an algorithmic entity, which is why the derivation uses the array
/// length and a seed only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitUpset {
    /// Victim slot index.
    pub index: usize,
    /// Bit position within the stored word.
    pub bit: u32,
}

impl BitUpset {
    /// Derives the victim location for an array of `len` words.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` — an empty memory has no faultable location.
    #[must_use]
    pub fn from_seed(seed: u64, len: usize) -> BitUpset {
        assert!(len > 0, "cannot target an empty array");
        let h = mix64(seed);
        BitUpset {
            index: (h % len as u64) as usize,
            // Keep to the low half of the word so the flip stays within
            // every supported width and corrupts value bits (not just the
            // f64 sign/exponent, which can round-trip to the same f64).
            bit: (mix64(h) % 31) as u32,
        }
    }

    /// Applies the upset in place.
    pub fn apply<V: Storable>(&self, values: &mut [V]) {
        let v = &mut values[self.index % values.len().max(1)];
        *v = flip_bit(*v, self.bit);
    }
}

/// Bytes of traffic one full checkpoint of `len` words costs, assuming
/// word-sized stores rounded up to transfer granules — the metric the
/// chaos bench reports as fault-free checkpoint overhead.
#[must_use]
pub fn checkpoint_bytes(len: usize) -> u64 {
    ((len as u64) * 8).div_ceil(LINE_BYTES) * LINE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_tracks_legitimate_writes() {
        let mut values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut shadow = ShadowChecksum::new(&values, 8);
        assert_eq!(shadow.regions(), 13);
        for i in [0usize, 7, 8, 99] {
            let old = values[i];
            let new = old * 3.5 + 1.0;
            values[i] = new;
            shadow.record_write(i, old, new);
        }
        shadow.scrub(&values).unwrap();
    }

    #[test]
    fn scrub_catches_and_localizes_a_bypassing_write() {
        let mut values: Vec<f64> = (0..64).map(|i| i as f64 + 0.25).collect();
        let shadow = ShadowChecksum::new(&values, 8);
        values[42] = f64::from_bits(values[42].to_bits() ^ 1); // bypasses record_write
        let (region, msg) = shadow.scrub(&values).unwrap_err();
        assert_eq!(region, 42 / 8);
        assert!(msg.contains("region 5"), "{msg}");
        assert!(msg.contains("vertices 40..48"), "{msg}");
        assert!(msg.contains("bypassed the apply path"), "{msg}");
    }

    #[test]
    fn scrub_catches_swapped_equal_values() {
        // Index mixing: swapping two different slots' contents within one
        // region is detected even though the multiset of values is equal.
        let mut values: Vec<u32> = vec![5, 9, 5, 9];
        let shadow = ShadowChecksum::new(&values, 4);
        values.swap(0, 1);
        assert!(shadow.scrub(&values).is_err());
    }

    #[test]
    fn bit_upset_is_deterministic_and_detected_for_every_width() {
        fn check<V: Storable + PartialEq + std::fmt::Debug>(mk: impl Fn(u64) -> V) {
            let mut values: Vec<V> = (0..33u64).map(mk).collect();
            let pristine = values.clone();
            let upset = BitUpset::from_seed(7, values.len());
            assert_eq!(upset, BitUpset::from_seed(7, values.len()));
            upset.apply(&mut values);
            assert_ne!(values[upset.index], pristine[upset.index]);
            let shadow = ShadowChecksum::new(&pristine, 8);
            let (region, _) = shadow.scrub(&values).unwrap_err();
            assert_eq!(region, upset.index / 8);
            // Flipping the same bit again restores the word.
            values[upset.index] = flip_bit(values[upset.index], upset.bit);
            shadow.scrub(&values).unwrap();
        }
        check(|i| i as f64 * 1.5);
        check(|i| i as u32 * 3);
        check(|i| i as i64 - 16);
        check(|i| i * 11);
    }

    #[test]
    fn checkpoint_bytes_rounds_to_lines() {
        assert_eq!(checkpoint_bytes(0), 0);
        assert_eq!(checkpoint_bytes(1), LINE_BYTES);
        assert_eq!(checkpoint_bytes(8), LINE_BYTES);
        assert_eq!(checkpoint_bytes(9), 2 * LINE_BYTES);
    }
}
