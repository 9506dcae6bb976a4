//! Every generator's output, pinned: an FNV-1a fold over both directions'
//! offsets, neighbour ids and weight bits of each generator and each
//! Table IV workload stand-in at a small scale. A builder or generator
//! change that moves one edge of one row fails here, next to its cause,
//! rather than in a schedule literal or a figure table downstream.

use gp_graph::generators::{
    barabasi_albert, erdos_renyi, grid_2d, rmat, watts_strogatz, RmatConfig, WeightMode,
};
use gp_graph::workloads::Workload;
use gp_graph::CsrGraph;

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds `g`'s out-CSR then in-CSR: per direction the offsets, then every
/// neighbour id, then every weight's bits, plus the vertex and edge counts
/// and the weighted flag.
fn fold(g: &CsrGraph) -> u64 {
    let mut f = Fold(0xcbf2_9ce4_8422_2325);
    f.mix(g.num_vertices() as u64);
    f.mix(g.num_edges() as u64);
    f.mix(u64::from(g.is_weighted()));
    for inward in [false, true] {
        let row = |v| {
            if inward {
                g.in_edges(v)
            } else {
                g.out_edges(v)
            }
        };
        let mut offset = 0u64;
        f.mix(offset);
        for v in g.vertices() {
            offset += row(v).len() as u64;
            f.mix(offset);
        }
        for v in g.vertices() {
            row(v).for_each(|e| f.mix(u64::from(e.other.get())));
        }
        for v in g.vertices() {
            row(v).for_each(|e| f.mix(u64::from(e.weight.to_bits())));
        }
    }
    f.0
}

const WEIGHTS: WeightMode = WeightMode::Uniform(0.5, 9.0);

#[test]
fn every_generator_is_pinned() {
    let cases: [(&str, CsrGraph, u64); 10] = [
        (
            "rmat",
            rmat(&RmatConfig::graph500(1_000, 8_000), 3),
            1380128681578080870,
        ),
        (
            "rmat weighted",
            rmat(&RmatConfig::graph500(777, 6_000).with_weights(WEIGHTS), 4),
            6621331335091745886,
        ),
        (
            "erdos_renyi",
            erdos_renyi(500, 3_000, WeightMode::Unweighted, 5),
            2820953003011397389,
        ),
        (
            "erdos_renyi weighted",
            erdos_renyi(300, 2_000, WEIGHTS, 6),
            16316992196771966712,
        ),
        (
            "barabasi_albert",
            barabasi_albert(400, 3, WeightMode::Unweighted, 7),
            4563336659480199559,
        ),
        (
            "barabasi_albert weighted",
            barabasi_albert(250, 4, WEIGHTS, 8),
            5452708788327939810,
        ),
        (
            "watts_strogatz",
            watts_strogatz(300, 4, 0.2, WeightMode::Unweighted, 9),
            15219774964195677071,
        ),
        (
            "watts_strogatz weighted",
            watts_strogatz(200, 3, 0.5, WEIGHTS, 10),
            14111276143997491362,
        ),
        (
            "grid_2d",
            grid_2d(20, 25, WeightMode::Unweighted, 11),
            14948686656738907805,
        ),
        (
            "grid_2d weighted",
            grid_2d(17, 13, WEIGHTS, 12),
            2015100874186153091,
        ),
    ];
    let got: Vec<(&str, u64)> = cases.iter().map(|(name, g, _)| (*name, fold(g))).collect();
    let want: Vec<(&str, u64)> = cases.iter().map(|(name, _, pin)| (*name, *pin)).collect();
    assert_eq!(got, want);
}

#[test]
fn every_workload_is_pinned() {
    let pins: [(Workload, u64); 6] = [
        (Workload::WebGoogle, 9466712718648946336),
        (Workload::Facebook, 15735420866043011416),
        (Workload::Wikipedia, 2173350807019306204),
        (Workload::LiveJournal, 9415829045609510645),
        (Workload::Twitter, 17050236223149285711),
        (Workload::Road, 15183912584431672943),
    ];
    let got: Vec<(Workload, u64)> = pins
        .iter()
        .map(|&(w, _)| (w, fold(&w.synthesize(16_384, 1))))
        .collect();
    assert_eq!(got, pins);
}
