//! Property tests over the graph substrate: every generator yields
//! structurally valid CSR, partitions tile the vertex space, and both IO
//! formats round-trip arbitrary graphs.
//!
//! Randomized cases are driven by the workspace's deterministic
//! [`gp_graph::rng::StdRng`], so every run exercises the same inputs.

use gp_graph::generators::{
    barabasi_albert, erdos_renyi, grid_2d, rmat, watts_strogatz, RmatConfig, WeightMode,
};
use gp_graph::partition::Partition;
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{io, CsrGraph, GraphBuilder, VertexId};

fn random_weight_mode(rng: &mut StdRng) -> WeightMode {
    if rng.gen_bool(0.5) {
        WeightMode::Unweighted
    } else {
        let lo = rng.gen_range(0.1f32..10.0);
        WeightMode::Uniform(lo, lo + 5.0)
    }
}

fn random_generated(rng: &mut StdRng) -> CsrGraph {
    let n = rng.gen_range(2..64usize);
    let seed = rng.next_u64();
    let wm = random_weight_mode(rng);
    match rng.gen_range(0..5u32) {
        0 => erdos_renyi(n, n * 4, wm, seed),
        1 => rmat(&RmatConfig::graph500(n, n * 4).with_weights(wm), seed),
        2 => barabasi_albert(n.max(4), 2, wm, seed),
        3 => watts_strogatz(n.max(4), 2, 0.3, wm, seed),
        _ => {
            let side = (n as f64).sqrt().ceil() as usize;
            grid_2d(side, side, wm, seed)
        }
    }
}

#[test]
fn generators_always_satisfy_csr_invariants() {
    let mut rng = StdRng::seed_from_u64(0xC1);
    for _ in 0..64 {
        let g = random_generated(&mut rng);
        assert!(g.check_invariants().is_ok());
        // Degree sums agree in both directions.
        let out_sum: u64 = g.vertices().map(|v| u64::from(g.out_degree(v))).sum();
        let in_sum: u64 = g.vertices().map(|v| u64::from(g.in_degree(v))).sum();
        assert_eq!(out_sum, g.num_edges() as u64);
        assert_eq!(in_sum, g.num_edges() as u64);
    }
}

#[test]
fn partitions_tile_exactly() {
    let mut rng = StdRng::seed_from_u64(0xC3);
    for _ in 0..64 {
        let g = random_generated(&mut rng);
        let cap = rng.gen_range(1..40usize);
        let p = Partition::contiguous(&g, cap);
        let mut covered = 0usize;
        let mut cursor = 0u32;
        for s in p.slices() {
            assert_eq!(s.start.get(), cursor);
            assert!(s.len() <= cap);
            assert!(!s.is_empty());
            covered += s.len();
            cursor = s.end.get();
        }
        assert_eq!(covered, g.num_vertices());
        // Every vertex maps back to the slice that contains it.
        for v in g.vertices() {
            assert!(p.slices()[p.slice_of(v)].contains(v));
        }
    }
}

#[test]
fn text_io_round_trips_topology() {
    let mut rng = StdRng::seed_from_u64(0xC5);
    for _ in 0..64 {
        let g = random_generated(&mut rng);
        let mut out = Vec::new();
        io::write_edge_list(&g, &mut out).unwrap();
        let back = io::read_edge_list(&out[..], Some(g.num_vertices())).unwrap();
        assert_eq!(g.num_vertices(), back.num_vertices());
        assert_eq!(g.num_edges(), back.num_edges());
        for v in g.vertices() {
            assert_eq!(g.out_neighbors(v), back.out_neighbors(v));
        }
    }
}

#[test]
fn builder_is_idempotent_under_rebuild() {
    let mut rng = StdRng::seed_from_u64(0xC6);
    for _ in 0..64 {
        let g = random_generated(&mut rng);
        // Re-feeding a built graph's edges reproduces it exactly.
        let mut b = GraphBuilder::new(g.num_vertices());
        b.weighted(g.is_weighted())
            .dedup(false)
            .drop_self_loops(false);
        for v in g.vertices() {
            for e in g.out_edges(v) {
                b.add_edge(v, e.other, e.weight);
            }
        }
        assert_eq!(b.build(), g);
    }
}

#[test]
fn partition_of_star_respects_caps() {
    let mut b = GraphBuilder::new(64);
    for i in 1..64u32 {
        b.add_edge(VertexId::new(0), VertexId::new(i), 1.0);
    }
    let g = b.build();
    let p = Partition::contiguous(&g, 10);
    assert!(p.slices().iter().all(|s| s.len() <= 10));
    assert_eq!(p.slices().iter().map(|s| s.len()).sum::<usize>(), 64);
}
