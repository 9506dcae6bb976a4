//! The raw R-MAT edge stream, pinned: an FNV-1a fold of every
//! `(src, dst, weight bits)` triple `rmat_edges` emits, in emission order.
//!
//! `generator_pins.rs` folds the built CSR, where deduplication and the
//! row sort hide the order and the weights of repeated draws; these folds
//! see both. A change to the quadrant walk, the jitter, the scramble or the
//! order of the RNG draws fails here. The literals were taken from the
//! if / else-if quadrant chain the branch-free walk replaced.

use gp_graph::generators::{rmat_edges, RmatConfig, WeightMode};

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds every emitted triple and the number of them.
fn fold(config: &RmatConfig, seed: u64) -> u64 {
    let mut f = Fold(0xcbf2_9ce4_8422_2325);
    let mut count = 0u64;
    rmat_edges(config, seed, |s, d, w| {
        f.mix(u64::from(s));
        f.mix(u64::from(d));
        f.mix(u64::from(w.to_bits()));
        count += 1;
    });
    assert_eq!(count, config.edges as u64);
    f.mix(count);
    f.0
}

#[test]
fn every_rmat_edge_stream_is_pinned() {
    let n = 1 << 12;
    let cases = [
        // Not a power of two: the scramble folds the padded ids.
        (
            "graph500",
            RmatConfig::graph500(1_000, 8_000),
            3,
            0x04b0_0213_20da_f749,
        ),
        // The repo benchmark's resident R-MAT at 2^12.
        (
            "accum 2^12",
            RmatConfig::graph500(n, 8 * n).with_weights(WeightMode::Uniform(1.0, 16.0)),
            42,
            0xec29_b94a_ef75_472f,
        ),
        (
            "noiseless",
            RmatConfig {
                noise: 0.0,
                ..RmatConfig::graph500(1 << 10, 8 << 10)
            },
            5,
            0x9e9d_cba8_e1ba_f8d2,
        ),
        // c = d = 0: every jittered c and d is clamped to 1e-9.
        (
            "c = d = 0",
            RmatConfig {
                a: 0.6,
                b: 0.4,
                c: 0.0,
                ..RmatConfig::graph500(1 << 9, 4 << 9)
            }
            .with_weights(WeightMode::Uniform(0.5, 2.0)),
            6,
            0x269d_681f_b801_4d63,
        ),
        // One vertex: one level, every edge a self loop on vertex 0.
        (
            "one vertex",
            RmatConfig::graph500(1, 64),
            7,
            0xefb9_dac6_e3f8_819f,
        ),
    ];
    let got: Vec<(&str, u64)> = cases
        .iter()
        .map(|(name, config, seed, _)| (*name, fold(config, *seed)))
        .collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|(name, .., pin)| (*name, *pin)).collect();
    assert_eq!(got, want, "R-MAT edge streams moved: {got:#x?}");
}
