//! The update stream, pinned: an FNV-1a fold of every update of the first
//! eight batches an `UpdateStream` draws against a 2^10 R-MAT overlay, each
//! batch applied before the next is drawn, so deletions see the inserts
//! before them. A change to the quadrant walk, the scramble, the
//! self-loop nudge or the order of the RNG draws fails here. The literal
//! was taken from the stream's own copy of the quadrant chain, before it
//! called the generator's.

use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::{EdgeUpdate, OverlayGraph};
use gp_stream::UpdateStream;

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn first_eight_batches_are_pinned() {
    const VERTICES: usize = 1 << 10;
    let weights = WeightMode::Uniform(1.0, 9.0);
    let base = rmat(
        &RmatConfig::graph500(VERTICES, 8 * VERTICES).with_weights(weights),
        11,
    );
    let mut graph = OverlayGraph::new(base);
    let mut stream = UpdateStream::new(VERTICES, 0.3, weights, 13);
    let mut f = Fold(0xcbf2_9ce4_8422_2325);
    let mut deletes = 0;
    for _ in 0..8 {
        let batch = stream.next_batch(&graph, 64);
        for update in &batch {
            match *update {
                EdgeUpdate::Insert { src, dst, weight } => {
                    f.mix(0);
                    f.mix(u64::from(src.get()));
                    f.mix(u64::from(dst.get()));
                    f.mix(u64::from(weight.to_bits()));
                }
                EdgeUpdate::Delete { src, dst } => {
                    deletes += 1;
                    f.mix(1);
                    f.mix(u64::from(src.get()));
                    f.mix(u64::from(dst.get()));
                }
            }
        }
        graph.apply(&batch);
    }
    assert!(deletes > 0, "the stream deleted nothing");
    assert_eq!(
        f.0, 0xa9bf_7dfd_8d18_5b92,
        "update stream moved: {:#x}",
        f.0
    );
}
