//! `GraphBuilder::build` and `build_streaming` against the algorithm they
//! replaced as oracle: clone the edge list, append the mirrors, drop self
//! loops, stable-sort globally by `(src, dst)`, keep the first of each
//! key, and transpose by a counting sort over destinations. All six CSR
//! arrays must come out the same, weights compared bitwise, over random
//! lists that repeat keys at distinct weights (keep-first picks the first
//! added; an original beats its key's mirror), carry self loops, one hub
//! row far longer than the rest and vertices no edge touches — for every
//! dedup / self-loop / symmetric combination. The container builder must
//! write the resident build's container byte for byte at every bucket
//! width, one vertex per bucket and wider than the graph included.

use std::fs;

use gp_graph::container::{build_streaming, write_container, StreamBuildOptions};
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, GraphBuilder, VertexId};

type Edge = (u32, u32, f32);

/// Both directions as `(offsets, neighbour ids, weight bits)`.
type Arrays = [(Vec<u32>, Vec<u32>, Vec<u32>); 2];

const SIZES: [usize; 6] = [0, 1, 63, 64, 65, 300];

/// The builder before the counting sort, kept verbatim in its steps.
fn reference(
    n: usize,
    edges: &[Edge],
    dedup: bool,
    drop_self_loops: bool,
    symmetric: bool,
) -> Arrays {
    let mut edges = edges.to_vec();
    if symmetric {
        let mirrored: Vec<_> = edges.iter().map(|&(s, d, w)| (d, s, w)).collect();
        edges.extend(mirrored);
    }
    if drop_self_loops {
        edges.retain(|&(s, d, _)| s != d);
    }
    edges.sort_by_key(|e| (e.0, e.1));
    if dedup {
        edges.dedup_by_key(|e| (e.0, e.1));
    }
    let mut out_offsets = vec![0u32; n + 1];
    for &(s, _, _) in &edges {
        out_offsets[s as usize + 1] += 1;
    }
    for v in 0..n {
        out_offsets[v + 1] += out_offsets[v];
    }
    // The in-mirror: a counting sort over destinations, sources ascending.
    let mut in_offsets = vec![0u32; n + 1];
    for &(_, d, _) in &edges {
        in_offsets[d as usize + 1] += 1;
    }
    for v in 0..n {
        in_offsets[v + 1] += in_offsets[v];
    }
    let mut cursor = in_offsets[..n].to_vec();
    let mut in_neighbors = vec![0u32; edges.len()];
    let mut in_weights = vec![0u32; edges.len()];
    for &(s, d, w) in &edges {
        let slot = cursor[d as usize] as usize;
        in_neighbors[slot] = s;
        in_weights[slot] = w.to_bits();
        cursor[d as usize] += 1;
    }
    [
        (
            out_offsets,
            edges.iter().map(|e| e.1).collect(),
            edges.iter().map(|e| e.2.to_bits()).collect(),
        ),
        (in_offsets, in_neighbors, in_weights),
    ]
}

/// `g`'s six arrays, read through the public row accessors.
fn arrays(g: &CsrGraph) -> Arrays {
    [false, true].map(|inward| {
        let mut offsets = vec![0u32];
        let (mut neighbors, mut weights) = (Vec::new(), Vec::new());
        for v in g.vertices() {
            let row = if inward {
                g.in_edges(v)
            } else {
                g.out_edges(v)
            };
            for e in row {
                neighbors.push(e.other.get());
                weights.push(e.weight.to_bits());
            }
            offsets.push(neighbors.len() as u32);
        }
        (offsets, neighbors, weights)
    })
}

/// A random list over `n` vertices: every third vertex is untouched, one
/// hub's row is ≈ 4n long, a quarter of the edges repeat an earlier key
/// at a new weight, some repeat an earlier edge reversed (so the mirror
/// of one collides with the other), and one in ten is a self loop.
fn random_edges(rng: &mut StdRng, n: usize) -> Vec<Edge> {
    if n == 0 {
        return Vec::new();
    }
    let live: Vec<u32> = (0..n as u32).filter(|v| n == 1 || v % 3 != 1).collect();
    let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
    let hub = pick(rng);
    let mut edges: Vec<Edge> = Vec::new();
    for i in 0..8 * n {
        let w = rng.gen_range(0.5f32..9.0);
        let earlier = |rng: &mut StdRng| {
            let (s, d, _) = edges[rng.gen_range(0..edges.len())];
            (s, d)
        };
        let (s, d) = match rng.gen_range(0..10u32) {
            _ if edges.is_empty() => (pick(rng), pick(rng)),
            0 | 1 => earlier(rng),
            2 => {
                let (s, d) = earlier(rng);
                (d, s)
            }
            3 => {
                let v = pick(rng);
                (v, v)
            }
            _ if i % 2 == 0 => (hub, pick(rng)),
            _ => (pick(rng), pick(rng)),
        };
        edges.push((s, d, w));
    }
    edges
}

fn build(n: usize, edges: &[Edge], flags: [bool; 4]) -> CsrGraph {
    let [dedup, drop_self_loops, symmetric, weighted] = flags;
    let mut b = GraphBuilder::new(n);
    for &(s, d, w) in edges {
        b.add_edge(VertexId::new(s), VertexId::new(d), w);
    }
    b.dedup(dedup)
        .drop_self_loops(drop_self_loops)
        .symmetric(symmetric)
        .weighted(weighted);
    b.build()
}

#[test]
fn the_builder_matches_the_sort_it_replaced() {
    let mut rng = StdRng::seed_from_u64(0xB17D);
    let mut graphs = 0;
    for n in SIZES {
        for _ in 0..3 {
            let edges = random_edges(&mut rng, n);
            for combo in 0..8u32 {
                let [dedup, drop_self_loops, symmetric] =
                    [0, 1, 2].map(|bit| combo >> bit & 1 == 1);
                let flags = [dedup, drop_self_loops, symmetric, combo % 3 == 0];
                let g = build(n, &edges, flags);
                g.check_invariants().unwrap();
                assert_eq!(g.is_weighted(), flags[3]);
                let want = reference(n, &edges, dedup, drop_self_loops, symmetric);
                assert!(
                    arrays(&g) == want,
                    "n {n}, dedup {dedup}, drop_self_loops {drop_self_loops}, symmetric {symmetric}"
                );
                graphs += 1;
            }
        }
    }
    assert_eq!(graphs, SIZES.len() * 3 * 8);
}

#[test]
fn keep_first_picks_the_first_added_and_an_original_over_its_mirror() {
    let edges = [(0, 1, 5.0), (1, 0, 7.0), (0, 1, 9.0), (1, 0, 3.0)];
    let g = build(2, &edges, [true, true, true, false]);
    let weight = |s: u32| g.out_edges(VertexId::new(s)).next().unwrap().weight;
    assert_eq!((g.num_edges(), weight(0), weight(1)), (2, 5.0, 7.0));
}

#[test]
fn the_container_builder_writes_the_resident_container() {
    let dir = std::env::temp_dir().join(format!("gp-builder-canonical-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for n in SIZES {
        let edges = random_edges(&mut rng, n);
        for weighted in [false, true] {
            let resident = dir.join("resident.gpc");
            write_container(&build(n, &edges, [true, true, false, weighted]), &resident).unwrap();
            let want = fs::read(&resident).unwrap();
            for bucket_vertices in [1, 7, 64, n, 2 * n] {
                let streamed = dir.join("streamed.gpc");
                let opts = StreamBuildOptions {
                    weighted,
                    bucket_vertices: bucket_vertices.max(1),
                };
                build_streaming(&streamed, n, &opts, |sink| {
                    edges.iter().for_each(|&(s, d, w)| sink(s, d, w));
                })
                .unwrap();
                assert!(
                    fs::read(&streamed).unwrap() == want,
                    "n {n}, weighted {weighted}, bucket_vertices {bucket_vertices}"
                );
            }
        }
    }
    fs::remove_dir_all(&dir).ok();
}
