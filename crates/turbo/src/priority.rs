//! Urgency → bucket-key quantization.
//!
//! The turbo engine files each active vertex in one of [`KEY_SPACE`]
//! buckets and drains the buckets in ascending key order, while
//! [`urgency`](gp_algorithms::DeltaAlgorithm::urgency) says *larger is more
//! urgent*. This module maps an `f64` urgency onto that small integer key
//! space, **monotonically decreasing**: the most urgent deltas land in the
//! lowest buckets and drain first. The key *is* the bucket index — the
//! engine keeps exactly one bucket per key, so no key is ever out of range
//! of the queue.
//!
//! The mapping uses the IEEE-754 total-order trick: flipping all bits of
//! negative floats and setting the sign bit of non-negative ones turns the
//! raw bit pattern into an unsigned integer whose order matches the float
//! order (−∞ < … < −0.0 < +0.0 < … < +∞). Complementing and keeping the
//! top [`KEY_BITS`] bits then yields a coarse, order-reversed bucket index
//! in `0..KEY_SPACE`. Quantization only merges *adjacent* urgencies into
//! one bucket — it never reorders two distinct ones — so the schedule is a
//! faithful (if coarse) §V priority order.

/// Number of key bits kept after quantization (the urgency's sign and
/// full 11-bit exponent).
pub const KEY_BITS: u32 = 12;

/// Size of the quantized key space, and so the engine's bucket count: keys
/// are in `0..KEY_SPACE`.
pub const KEY_SPACE: u64 = 1 << KEY_BITS;

/// Quantizes an urgency into a bucket key in `0..KEY_SPACE`.
///
/// Strictly monotone *decreasing* over the IEEE total order: a larger
/// urgency never maps to a larger key. `urgency` must not be NaN (the
/// [`DeltaAlgorithm::urgency`](gp_algorithms::DeltaAlgorithm::urgency)
/// contract); NaN would quantize like an extreme value rather than poison
/// the schedule, but the resulting order is unspecified.
///
/// # Examples
///
/// ```
/// use gp_turbo::priority::{key_of, KEY_SPACE};
///
/// assert!(key_of(f64::INFINITY) < key_of(1.0));
/// assert!(key_of(1.0) < key_of(1e-9));
/// assert!(key_of(1e-9) < key_of(-3.0));
/// assert!(key_of(f64::NEG_INFINITY) < KEY_SPACE);
/// ```
#[inline]
#[must_use]
pub fn key_of(urgency: f64) -> u64 {
    let bits = urgency.to_bits();
    // IEEE-754 total order as an unsigned integer.
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    (!ordered) >> (64 - KEY_BITS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_stay_inside_the_key_space() {
        for u in [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert!(key_of(u) < KEY_SPACE, "key_of({u}) out of range");
        }
    }

    #[test]
    fn mapping_is_monotone_decreasing() {
        let ladder = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -1e-300,
            0.0,
            1e-300,
            0.5,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for pair in ladder.windows(2) {
            assert!(
                key_of(pair[0]) >= key_of(pair[1]),
                "key_of({}) < key_of({})",
                pair[0],
                pair[1]
            );
        }
        // The extremes must be strictly separated.
        assert!(key_of(f64::NEG_INFINITY) > key_of(f64::INFINITY));
        assert!(key_of(1.0) > key_of(2.0));
    }

    #[test]
    fn most_urgent_lands_in_bucket_zero() {
        assert_eq!(key_of(f64::INFINITY), 0);
    }

    #[test]
    fn quantization_merges_only_neighbors() {
        // Sorting by key must never invert the urgency order on a dense
        // sample of magnitudes.
        let mut urgencies: Vec<f64> = (-60..60).map(|e| 2.0f64.powi(e)).collect();
        urgencies.extend((-60..60).map(|e| -(2.0f64.powi(e))));
        urgencies.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let keys: Vec<u64> = urgencies.iter().map(|&u| key_of(u)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "descending urgency must give ascending keys");
    }
}
