//! Out-of-core container tests: encode → write → mmap-decode must be
//! bit-identical to the resident [`CsrGraph`] relabeled hub-first across
//! seeded generator graphs (including empty graphs, zero-degree vertices
//! and both weight modes), a multigraph must come back as the simple graph
//! `GraphBuilder` defaults build from its edges, [`write_container`] must
//! be the streaming builder byte-for-byte, a refused build must leave
//! nothing behind, and every corruption class must come back as a typed
//! [`ReadGraphError`] — never a panic.

use std::fs;
use std::path::PathBuf;

use gp_graph::container::{
    build_streaming, hub_first, write_container, ContainerWriteError, SegmentDigest,
    StreamBuildOptions, HEADER_DIGEST_AT,
};
use gp_graph::generators::{
    barabasi_albert, erdos_renyi, rmat, rmat_edges, RmatConfig, WeightMode,
};
use gp_graph::io::ReadGraphError;
use gp_graph::rng::{Rng, StdRng};
use gp_graph::{CsrGraph, EdgeRef, GraphBuilder, GraphView, MappedCsr, OutEdges, VertexId};

/// Fresh per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gp-container-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// Whether two rows hold the same edges, weights compared as bits.
fn same_row(a: OutEdges<'_>, b: OutEdges<'_>) -> bool {
    let bits = |e: EdgeRef| (e.other, e.weight.to_bits());
    a.len() == b.len() && a.map(bits).eq(b.map(bits))
}

/// The container's ranks: `rank[s]` is stream vertex `s`'s container id.
fn ranks(mapped: &MappedCsr) -> Vec<u32> {
    (0..mapped.num_vertices() as u32)
        .map(|s| mapped.container_id(VertexId::new(s)).get())
        .collect()
}

/// Asserts that `mapped` numbers `resident`'s vertices hub-first and
/// serves bit-identical adjacency to `resident` relabeled by its ranks
/// through every `GraphView` accessor, and that re-materializing equals
/// that relabeling. (`storage_equivalence.rs` holds the row contract
/// itself — `get`, `nth`, metering — over every storage.)
fn assert_bit_identical(resident: &CsrGraph, mapped: &MappedCsr) {
    assert_eq!(mapped.num_vertices(), resident.num_vertices());
    let in_degrees: Vec<u32> = resident.vertices().map(|v| resident.in_degree(v)).collect();
    for (v, s) in (0u32..).zip(hub_first(&in_degrees)) {
        assert_eq!(mapped.stream_id(VertexId::new(v)).get(), s);
        assert_eq!(mapped.container_id(VertexId::new(s)).get(), v);
    }
    let resident = &resident.relabel(&ranks(mapped));
    assert_eq!(GraphView::num_edges(mapped), resident.num_edges());
    assert_eq!(mapped.is_weighted(), resident.is_weighted());
    for v in resident.vertices() {
        assert_eq!(mapped.out_degree(v), resident.out_degree(v), "{v} out deg");
        assert_eq!(mapped.out_edge_base(v), resident.out_edge_base(v));
        assert!(
            same_row(mapped.out_edges(v), resident.out_edges(v)),
            "{v} out row"
        );
        assert_eq!(mapped.in_degree(v), resident.in_degree(v), "{v} in deg");
        assert!(
            same_row(mapped.in_edges(v), resident.in_edges(v)),
            "{v} in row"
        );
    }
    assert_eq!(&mapped.to_csr(), resident);
}

fn random_weight_mode(rng: &mut StdRng) -> WeightMode {
    if rng.gen_bool(0.5) {
        WeightMode::Unweighted
    } else {
        let lo = rng.gen_range(0.1f32..10.0);
        WeightMode::Uniform(lo, lo + 5.0)
    }
}

#[test]
fn mapped_container_bit_identical_to_resident() {
    let scratch = Scratch::new("roundtrip");
    let mut rng = StdRng::seed_from_u64(0xD15C);
    for case in 0..24 {
        let n = rng.gen_range(2..200usize);
        let seed = rng.next_u64();
        let wm = random_weight_mode(&mut rng);
        let g = match case % 3 {
            0 => rmat(&RmatConfig::graph500(n, n * 4).with_weights(wm), seed),
            1 => barabasi_albert(n.max(4), 2, wm, seed),
            _ => erdos_renyi(n, n * 4, wm, seed),
        };
        let path = scratch.path(&format!("case{case}.gpc"));
        let summary = write_container(&g, &path).unwrap();
        assert_eq!(summary.vertices as usize, g.num_vertices());
        assert_eq!(summary.edges as usize, g.num_edges());
        let mapped = MappedCsr::open_verified(&path).unwrap();
        assert_bit_identical(&g, &mapped);
    }
}

#[test]
fn empty_and_zero_degree_graphs_round_trip() {
    let scratch = Scratch::new("edgecases");

    // Fully empty graph: zero vertices, zero edges.
    let empty = GraphBuilder::new(0).build();
    let path = scratch.path("empty.gpc");
    let summary = write_container(&empty, &path).unwrap();
    assert_eq!((summary.vertices, summary.edges), (0, 0));
    let mapped = MappedCsr::open_verified(&path).unwrap();
    assert_bit_identical(&empty, &mapped);

    // Vertices with no edges at all.
    let isolated = GraphBuilder::new(17).build();
    let path = scratch.path("isolated.gpc");
    write_container(&isolated, &path).unwrap();
    assert_bit_identical(&isolated, &MappedCsr::open_verified(&path).unwrap());

    // Zero-degree vertices interleaved with a weighted path, including a
    // trailing isolated vertex (exercises rowptr plateaus at both ends).
    let mut b = GraphBuilder::new(9);
    b.add_edge(VertexId::new(1), VertexId::new(4), 2.5);
    b.add_edge(VertexId::new(4), VertexId::new(7), -0.0); // signed-zero bit pattern
    b.weighted(true);
    let sparse = b.build();
    let path = scratch.path("sparse.gpc");
    write_container(&sparse, &path).unwrap();
    assert_bit_identical(&sparse, &MappedCsr::open_verified(&path).unwrap());
}

#[test]
fn streaming_build_matches_resident_container_bytewise() {
    let scratch = Scratch::new("streaming");
    for (seed, weighted) in [(11u64, false), (12, true)] {
        let wm = if weighted {
            WeightMode::Uniform(0.5, 3.0)
        } else {
            WeightMode::Unweighted
        };
        let cfg = RmatConfig::graph500(1 << 10, 8 << 10).with_weights(wm);

        let resident_path = scratch.path(&format!("resident-{seed}.gpc"));
        let g = rmat(&cfg, seed);
        write_container(&g, &resident_path).unwrap();

        // Tiny buckets force many spill files and multi-bucket assembly.
        let streamed_path = scratch.path(&format!("streamed-{seed}.gpc"));
        let opts = StreamBuildOptions {
            weighted,
            bucket_vertices: 100,
        };
        let summary = build_streaming(&streamed_path, cfg.vertices, &opts, |sink| {
            rmat_edges(&cfg, seed, sink);
        })
        .unwrap();
        assert_eq!(summary.edges as usize, g.num_edges());

        let resident_bytes = fs::read(&resident_path).unwrap();
        let streamed_bytes = fs::read(&streamed_path).unwrap();
        assert!(
            resident_bytes == streamed_bytes,
            "streamed container differs from resident container (seed {seed})"
        );
        assert_bit_identical(&g, &MappedCsr::open_verified(&streamed_path).unwrap());
    }
}

#[test]
fn a_multigraph_is_written_as_its_simple_graph() {
    let scratch = Scratch::new("multi");
    let edges = [
        (0, 3, 1.0),
        (0, 3, 2.0),
        (3, 3, 3.0),
        (1, 3, 4.0),
        (4, 2, 5.0),
    ];
    let add_all = |b: &mut GraphBuilder| {
        for (s, d, w) in edges {
            b.add_edge(VertexId::new(s), VertexId::new(d), w);
        }
    };
    let mut multi = GraphBuilder::new(5);
    multi.weighted(true).dedup(false).drop_self_loops(false);
    add_all(&mut multi);
    let g = multi.build();
    assert_eq!(g.num_edges(), 5);
    let path = scratch.path("multi.gpc");
    // The loop goes, and of the pair the first (weight 1.0) stays.
    assert_eq!(write_container(&g, &path).unwrap().edges, 3);
    let mut simple = GraphBuilder::new(5);
    simple.weighted(true);
    add_all(&mut simple);
    assert_bit_identical(&simple.build(), &MappedCsr::open_verified(&path).unwrap());

    let streamed = scratch.path("streamed.gpc");
    let opts = StreamBuildOptions {
        weighted: true,
        bucket_vertices: 1,
    };
    build_streaming(&streamed, 5, &opts, |sink| {
        edges.iter().for_each(|&(s, d, w)| sink(s, d, w));
    })
    .unwrap();
    assert!(fs::read(&path).unwrap() == fs::read(&streamed).unwrap());
}

#[test]
fn hub_first_orders_by_in_degree_then_stream_id() {
    let mut rng = StdRng::seed_from_u64(0x0D3);
    for n in [0usize, 1, 63, 64, 65] {
        // Few distinct degrees, so most vertices tie.
        let degrees: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4u32)).collect();
        let order = hub_first(&degrees);
        let mut seen = vec![false; n];
        for &s in &order {
            assert!(!std::mem::replace(&mut seen[s as usize], true), "n {n}");
        }
        assert!(seen.iter().all(|&x| x), "n {n}: not a permutation");
        for pair in order.windows(2) {
            let key = |s: u32| (std::cmp::Reverse(degrees[s as usize]), s);
            assert!(key(pair[0]) < key(pair[1]), "n {n}: {pair:?}");
        }
        // Equal degrees: the stream's order.
        let identity: Vec<u32> = (0..n as u32).collect();
        assert_eq!(hub_first(&vec![7; n]), identity, "n {n}");
        // A star into a middle vertex: the hub first, the rest in order.
        if n > 0 {
            let hub = n as u32 / 2;
            let mut star = vec![0; n];
            star[hub as usize] = n as u32 - 1;
            let want: Vec<u32> = std::iter::once(hub)
                .chain((0..n as u32).filter(|&s| s != hub))
                .collect();
            assert_eq!(hub_first(&star), want, "n {n}");
        }
    }
}

#[test]
fn streaming_build_rejects_out_of_range_edges() {
    let scratch = Scratch::new("streambad");
    let path = scratch.path("bad.gpc");
    let err = build_streaming(&path, 4, &StreamBuildOptions::default(), |sink| {
        sink(1, 9, 1.0)
    })
    .unwrap_err();
    assert!(err.to_string().contains("out of range"), "got: {err}");
    // The container is created only once the stream is ranked, and the
    // spill directory goes on every path.
    assert!(!path.exists());
    let left: Vec<_> = fs::read_dir(&scratch.0)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn a_build_into_a_missing_directory_creates_nothing() {
    let scratch = Scratch::new("nodir");
    let missing = scratch.path("missing");
    let path = missing.join("x.gpc");
    let g = rmat(&RmatConfig::graph500(16, 64), 3);
    let written = write_container(&g, &path);
    let streamed = build_streaming(&path, 16, &StreamBuildOptions::default(), |sink| {
        sink(0, 1, 1.0)
    });
    for result in [written, streamed] {
        assert!(
            matches!(result, Err(ContainerWriteError::Io(_))),
            "got: {result:?}"
        );
        assert!(!missing.exists());
    }
}

// ---------------------------------------------------------------------------
// Corruption paths: every class is a typed error, never a panic.
// ---------------------------------------------------------------------------

/// Writes a small weighted container and returns its bytes.
fn healthy_container(scratch: &Scratch, name: &str) -> (PathBuf, Vec<u8>) {
    let cfg = RmatConfig::graph500(64, 256).with_weights(WeightMode::Uniform(1.0, 2.0));
    let g = rmat(&cfg, 99);
    assert!(g.num_edges() > 0);
    let path = scratch.path(name);
    write_container(&g, &path).unwrap();
    let bytes = fs::read(&path).unwrap();
    (path, bytes)
}

/// Recomputes and patches the header digest after a deliberate header
/// edit, so the edit itself (not the digest) is what `open` sees.
fn reseal_header(bytes: &mut [u8]) {
    let mut d = SegmentDigest::new();
    d.update(&bytes[..HEADER_DIGEST_AT]);
    let digest = d.finish();
    bytes[HEADER_DIGEST_AT..HEADER_DIGEST_AT + 8].copy_from_slice(&digest.to_le_bytes());
}

fn open_patched(scratch: &Scratch, name: &str, bytes: &[u8]) -> Result<MappedCsr, ReadGraphError> {
    let path = scratch.path(name);
    fs::write(&path, bytes).unwrap();
    MappedCsr::open(&path)
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

#[test]
fn truncated_header_is_typed() {
    let scratch = Scratch::new("trunc-header");
    let (_, bytes) = healthy_container(&scratch, "ok.gpc");
    for cut in [0usize, 1, 100, 255] {
        let err = open_patched(&scratch, "cut.gpc", &bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, ReadGraphError::Truncated),
            "cut at {cut}: {err}"
        );
    }
}

#[test]
fn truncated_segment_is_typed() {
    let scratch = Scratch::new("trunc-seg");
    let (_, bytes) = healthy_container(&scratch, "ok.gpc");
    // Header intact, file cut mid-segment.
    let err = open_patched(&scratch, "cut.gpc", &bytes[..bytes.len() - 10]).unwrap_err();
    assert!(matches!(err, ReadGraphError::Truncated), "{err}");
}

#[test]
fn bad_magic_is_typed() {
    let scratch = Scratch::new("magic");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    bytes[0] = b'X';
    let err = open_patched(&scratch, "bad.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::BadMagic), "{err}");
}

#[test]
fn wrong_version_is_typed() {
    let scratch = Scratch::new("version");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    bytes[4..6].copy_from_slice(&7u16.to_le_bytes());
    let err = open_patched(&scratch, "bad.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::BadVersion(7)), "{err}");
    // A version-1 file (the format with a stored slice index) is refused
    // even with a well-formed header: there is no compatibility reader.
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    reseal_header(&mut bytes);
    let err = open_patched(&scratch, "v1.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::BadVersion(1)), "{err}");
    // Nor is version 2 (six segments, stream ids).
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    reseal_header(&mut bytes);
    let err = open_patched(&scratch, "v2.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::BadVersion(2)), "{err}");
}

#[test]
fn corrupted_header_fails_its_digest() {
    let scratch = Scratch::new("header-digest");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    bytes[8] ^= 1; // num_vertices, without resealing
    let err = open_patched(&scratch, "bad.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::ChecksumMismatch(_)), "{err}");
}

#[test]
fn misaligned_segment_offset_is_typed() {
    let scratch = Scratch::new("align");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    // Knock the out_neighbors descriptor (second segment, at 32 + 24) off
    // the 64-byte grid, then reseal the header digest so alignment is the
    // first check that can fail.
    let at = 32 + 24;
    let off = u64_at(&bytes, at);
    bytes[at..at + 8].copy_from_slice(&(off + 4).to_le_bytes());
    reseal_header(&mut bytes);
    let err = open_patched(&scratch, "bad.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::Misaligned(_)), "{err}");
}

#[test]
fn inconsistent_segment_length_is_typed() {
    let scratch = Scratch::new("seglen");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    // out_rowptr length disagrees with the header's vertex count.
    let at = 32 + 8;
    let len = u64_at(&bytes, at);
    bytes[at..at + 8].copy_from_slice(&(len + 4).to_le_bytes());
    reseal_header(&mut bytes);
    let err = open_patched(&scratch, "bad.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::Misaligned(_)), "{err}");
}

#[test]
fn segment_checksum_mismatch_is_typed() {
    let scratch = Scratch::new("checksum");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    // Flip a byte inside the out_neighbors payload: structural open still
    // succeeds (rowptrs are intact), full verification names the segment.
    let neigh_off = u64_at(&bytes, 32 + 24) as usize;
    bytes[neigh_off] ^= 0x01;
    let path = scratch.path("bad.gpc");
    fs::write(&path, &bytes).unwrap();
    let mapped = MappedCsr::open(&path).unwrap();
    let err = mapped.verify_checksums().unwrap_err();
    match &err {
        ReadGraphError::ChecksumMismatch(what) => {
            assert!(what.contains("out_neighbors"), "{what}")
        }
        other => panic!("expected checksum mismatch, got {other}"),
    }
    assert!(matches!(
        MappedCsr::open_verified(&path),
        Err(ReadGraphError::ChecksumMismatch(_))
    ));
}

#[test]
fn non_monotone_rowptr_is_typed() {
    let scratch = Scratch::new("rowptr");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    // Spike out_rowptr[1] above the edge count: monotonicity breaks at
    // vertex 2 (or the terminal total check fires). Structural, so no
    // header reseal is needed — open() must catch it before any digest of
    // the segment is consulted.
    let rowptr_off = u64_at(&bytes, 32) as usize;
    bytes[rowptr_off + 4..rowptr_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = open_patched(&scratch, "bad.gpc", &bytes).unwrap_err();
    assert!(matches!(err, ReadGraphError::Corrupt(_)), "{err}");
}

/// Byte offset of segment `i`'s payload, read from its descriptor.
fn segment_at(bytes: &[u8], i: usize) -> usize {
    u64_at(bytes, 32 + i * 24) as usize
}

const ORDER: usize = 6;
const RANK: usize = 7;

#[test]
fn order_and_rank_that_are_not_inverse_permutations_are_corrupt() {
    let scratch = Scratch::new("perm");
    let (_, healthy) = healthy_container(&scratch, "ok.gpc");
    let n = u64_at(&healthy, 8) as usize;
    let entry = |seg: usize, v: usize| segment_at(&healthy, seg) + 4 * v;
    // A flipped byte in either segment; an entry past n; order's two
    // first entries swapped, rank left as it was. The segment digests
    // are stale in every case, but open() reads none of them.
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    for (name, seg) in [("order", ORDER), ("rank", RANK)] {
        let mut flipped = healthy.clone();
        flipped[entry(seg, n / 2)] ^= 0x01;
        cases.push((name, flipped));
        let mut past = healthy.clone();
        past[entry(seg, 0)..entry(seg, 1)].copy_from_slice(&(n as u32).to_le_bytes());
        cases.push((name, past));
    }
    let mut swapped = healthy.clone();
    let (a, b) = (entry(ORDER, 0), entry(ORDER, 1));
    let first: [u8; 4] = swapped[a..a + 4].try_into().unwrap();
    swapped.copy_within(b..b + 4, a);
    swapped[b..b + 4].copy_from_slice(&first);
    cases.push(("order", swapped));
    for (i, (name, bytes)) in cases.iter().enumerate() {
        let err = open_patched(&scratch, &format!("bad{i}.gpc"), bytes).unwrap_err();
        assert!(
            matches!(err, ReadGraphError::Corrupt(_)),
            "{name} {i}: {err}"
        );
    }
}

#[test]
fn order_and_rank_are_digested() {
    let scratch = Scratch::new("perm-digest");
    let (_, mut bytes) = healthy_container(&scratch, "ok.gpc");
    // Swap two vertices consistently in both permutations: still inverse,
    // so open() accepts it, but both digests are stale.
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let (order, rank) = (segment_at(&bytes, ORDER), segment_at(&bytes, RANK));
    let (s0, s1) = (u32_at(&bytes, order), u32_at(&bytes, order + 4));
    bytes[order..order + 4].copy_from_slice(&s1.to_le_bytes());
    bytes[order + 4..order + 8].copy_from_slice(&s0.to_le_bytes());
    let (r0, r1) = (rank + 4 * s0 as usize, rank + 4 * s1 as usize);
    bytes[r0..r0 + 4].copy_from_slice(&1u32.to_le_bytes());
    bytes[r1..r1 + 4].copy_from_slice(&0u32.to_le_bytes());
    let named = |bytes: &[u8], want: &str| {
        let path = scratch.path(&format!("swapped-{want}.gpc"));
        fs::write(&path, bytes).unwrap();
        MappedCsr::open(&path).expect("still inverse permutations");
        match MappedCsr::open_verified(&path) {
            Err(ReadGraphError::ChecksumMismatch(what)) => assert!(what.contains(want), "{what}"),
            other => panic!("expected a {want} checksum mismatch, got {other:?}"),
        }
    };
    named(&bytes, "order");
    // With order's digest re-stamped, rank's is the one left to fail.
    let len = u64_at(&bytes, 32 + ORDER * 24 + 8) as usize;
    let mut d = SegmentDigest::new();
    d.update(&bytes[order..order + len]);
    let at = 32 + ORDER * 24 + 16;
    bytes[at..at + 8].copy_from_slice(&d.finish().to_le_bytes());
    reseal_header(&mut bytes);
    named(&bytes, "rank");
}
