//! [`MappedCsr`]: a [`GraphView`] served directly from a mapped container.

use std::fs::File;
use std::path::Path;

use super::mmap::Mapping;
use super::{
    digest_of, segment_lens, Header, HEADER_BYTES, SEGMENT_ALIGN, SEG_COUNT, SEG_IN_NEIGHBORS,
    SEG_IN_ROWPTR, SEG_IN_WEIGHTS, SEG_NAMES, SEG_ORDER, SEG_OUT_NEIGHBORS, SEG_OUT_ROWPTR,
    SEG_OUT_WEIGHTS, SEG_RANK,
};
use crate::csr::u32_at;
use crate::io::ReadGraphError;
use crate::{CsrGraph, GraphView, OutEdges, VertexId};

/// A disk-resident CSR graph opened from a container file.
///
/// Implements [`GraphView`] by decoding little-endian words straight out of
/// the mapped segments — no resident arrays, no alignment requirement on
/// the mapping (every access goes through `from_le_bytes` on a 4-byte
/// window). A row is two row-pointer decodes that bound a byte window of
/// the neighbor (and weight) segment; the [`OutEdges`] over that window
/// decodes one word per edge (two if weighted) as it is walked. The
/// resident footprint of an open graph is the struct itself plus whatever
/// pages the OS keeps warm; the golden engines, the slice-swapping
/// machinery, and turbo all run against it unmodified.
///
/// Its ids are container ids: the graph it was written from, numbered
/// hub-first (see the [module docs](super)). [`MappedCsr::stream_id`] and
/// [`MappedCsr::container_id`] translate.
///
/// [`MappedCsr::open`] performs *structural* validation: magic, version,
/// header digest, segment alignment and extents, row-pointer
/// monotonicity for both directions, and that `order` and `rank` are
/// inverse permutations of `0..n`. It does **not** read
/// the edge segments (that would fault in the whole file);
/// [`MappedCsr::open_verified`] additionally recomputes every segment
/// digest for end-to-end integrity at the cost of one full scan.
#[derive(Debug)]
pub struct MappedCsr {
    map: Mapping,
    num_vertices: usize,
    num_edges: usize,
    weighted: bool,
    seg_bounds: [(usize, usize); SEG_COUNT],
    seg_digests: [u64; SEG_COUNT],
}

impl MappedCsr {
    /// Opens and structurally validates a container.
    ///
    /// # Errors
    ///
    /// [`ReadGraphError::Io`] on filesystem failure, otherwise the typed
    /// corruption taxonomy: [`ReadGraphError::BadMagic`] /
    /// [`ReadGraphError::BadVersion`] / [`ReadGraphError::Truncated`] /
    /// [`ReadGraphError::Misaligned`] / [`ReadGraphError::ChecksumMismatch`]
    /// (header digest only at this level) / [`ReadGraphError::Corrupt`].
    pub fn open(path: &Path) -> Result<MappedCsr, ReadGraphError> {
        let file = File::open(path).map_err(ReadGraphError::Io)?;
        let map = Mapping::map(&file).map_err(ReadGraphError::Io)?;
        MappedCsr::from_mapping(map)
    }

    /// [`MappedCsr::open`] plus a full recomputation of every segment
    /// digest ([`MappedCsr::verify_checksums`]).
    ///
    /// # Errors
    ///
    /// Everything [`MappedCsr::open`] returns, plus
    /// [`ReadGraphError::ChecksumMismatch`] naming any segment whose bytes
    /// no longer match the header digest.
    pub fn open_verified(path: &Path) -> Result<MappedCsr, ReadGraphError> {
        let g = MappedCsr::open(path)?;
        g.verify_checksums()?;
        Ok(g)
    }

    fn from_mapping(map: Mapping) -> Result<MappedCsr, ReadGraphError> {
        let bytes = map.bytes();
        let header = Header::decode(bytes)?;
        let file_len = bytes.len() as u64;

        let n64 = header.num_vertices;
        let m64 = header.num_edges;
        if n64 > u64::from(u32::MAX) || m64 > u64::from(u32::MAX) {
            return Err(ReadGraphError::Corrupt(format!(
                "container claims {n64} vertices / {m64} edges, beyond the u32 id space"
            )));
        }
        let n = n64 as usize;
        let m = m64 as usize;

        let expected_len = segment_lens(n64, m64, header.weighted);

        let mut seg_bounds = [(0usize, 0usize); SEG_COUNT];
        let mut seg_digests = [0u64; SEG_COUNT];
        let mut prev_end = HEADER_BYTES;
        for i in 0..SEG_COUNT {
            let seg = header.segments[i];
            let name = SEG_NAMES[i];
            if seg.len != expected_len[i] {
                return Err(ReadGraphError::Misaligned(format!(
                    "segment {name} is {} bytes, header geometry requires {}",
                    seg.len, expected_len[i]
                )));
            }
            if seg.offset % SEGMENT_ALIGN != 0 {
                return Err(ReadGraphError::Misaligned(format!(
                    "segment {name} at offset {} breaks the {SEGMENT_ALIGN}-byte alignment",
                    seg.offset
                )));
            }
            if seg.offset < prev_end {
                return Err(ReadGraphError::Misaligned(format!(
                    "segment {name} at offset {} overlaps the previous region ending at {prev_end}",
                    seg.offset
                )));
            }
            let end = seg.offset.checked_add(seg.len).ok_or_else(|| {
                ReadGraphError::Misaligned(format!("segment {name} extent overflows"))
            })?;
            if end > file_len {
                return Err(ReadGraphError::Truncated);
            }
            seg_bounds[i] = (seg.offset as usize, end as usize);
            seg_digests[i] = seg.digest;
            prev_end = end;
        }

        let graph = MappedCsr {
            map,
            num_vertices: n,
            num_edges: m,
            weighted: header.weighted,
            seg_bounds,
            seg_digests,
        };

        // Row pointers must be monotone and end exactly at num_edges, in
        // both directions; this is what makes the panic-free GraphView
        // accessors sound.
        for (seg, dir) in [(SEG_OUT_ROWPTR, "out"), (SEG_IN_ROWPTR, "in")] {
            let rowptr = graph.seg(seg);
            let mut prev = u32_at(rowptr, 0);
            if prev != 0 {
                return Err(ReadGraphError::Corrupt(format!(
                    "{dir} row pointers start at {prev}, expected 0"
                )));
            }
            for v in 1..=n {
                let cur = u32_at(rowptr, v);
                if cur < prev {
                    return Err(ReadGraphError::Corrupt(format!(
                        "{dir} row pointers not monotone at vertex {v} ({cur} < {prev})"
                    )));
                }
                prev = cur;
            }
            if prev as usize != m {
                return Err(ReadGraphError::Corrupt(format!(
                    "{dir} row pointers end at {prev}, header claims {m} edges"
                )));
            }
        }

        // Every entry below n and rank[order[v]] == v: order is injective
        // on 0..n, so both are permutations and rank is order's inverse.
        let (order, rank) = (graph.seg(SEG_ORDER), graph.seg(SEG_RANK));
        for v in 0..n {
            let (s, r) = (u32_at(order, v), u32_at(rank, v));
            if s as usize >= n || r as usize >= n {
                return Err(ReadGraphError::Corrupt(format!(
                    "order / rank entry {s} / {r} at {v} out of range for {n} vertices"
                )));
            }
            if u32_at(rank, s as usize) as usize != v {
                return Err(ReadGraphError::Corrupt(format!(
                    "order and rank are not inverse permutations: rank[order[{v}]] != {v}"
                )));
            }
        }

        Ok(graph)
    }

    /// Recomputes every segment digest against the header.
    ///
    /// # Errors
    ///
    /// [`ReadGraphError::ChecksumMismatch`] naming the first segment whose
    /// bytes disagree with the digest stored in the header.
    pub fn verify_checksums(&self) -> Result<(), ReadGraphError> {
        for (i, (&stored, name)) in self.seg_digests.iter().zip(SEG_NAMES).enumerate() {
            let computed = digest_of(self.seg(i));
            if computed != stored {
                return Err(ReadGraphError::ChecksumMismatch(format!(
                    "segment {name} digest {computed:#018x} != stored {stored:#018x}"
                )));
            }
        }
        Ok(())
    }

    fn seg(&self, i: usize) -> &[u8] {
        let (lo, hi) = self.seg_bounds[i];
        &self.map.bytes()[lo..hi]
    }

    /// Total size of the backing file in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.map.bytes().len() as u64
    }

    /// Whether the bytes are served by a kernel file mapping (`false`
    /// means the portability fallback read the file onto the heap).
    pub fn is_kernel_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// The stream id of container vertex `v`: its id in the graph or edge
    /// stream the container was written from.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the container.
    pub fn stream_id(&self, v: VertexId) -> VertexId {
        VertexId::new(u32_at(self.seg(SEG_ORDER), v.index()))
    }

    /// The container id of stream vertex `stream`; the inverse of
    /// [`MappedCsr::stream_id`].
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not a vertex of the container.
    pub fn container_id(&self, stream: VertexId) -> VertexId {
        VertexId::new(u32_at(self.seg(SEG_RANK), stream.index()))
    }

    /// Materializes a fully-resident [`CsrGraph`] with identical topology
    /// and weights, in container order — the bridge the differential
    /// oracle uses to pin mapped ≡ resident.
    pub fn to_csr(&self) -> CsrGraph {
        let n = self.num_vertices;
        let m = self.num_edges;
        let rowptr = self.seg(SEG_OUT_ROWPTR);
        let neigh = self.seg(SEG_OUT_NEIGHBORS);
        let mut out_offsets = Vec::with_capacity(n + 1);
        for v in 0..=n {
            out_offsets.push(u32_at(rowptr, v));
        }
        let mut out_neighbors = Vec::with_capacity(m);
        for e in 0..m {
            out_neighbors.push(VertexId::new(u32_at(neigh, e)));
        }
        let out_weights = if self.weighted {
            let w = self.seg(SEG_OUT_WEIGHTS);
            (0..m).map(|e| f32::from_bits(u32_at(w, e))).collect()
        } else {
            vec![1.0; m]
        };
        CsrGraph::from_parts(
            n as u32,
            out_offsets,
            out_neighbors,
            out_weights,
            self.weighted,
        )
    }

    #[inline]
    fn rowptr_pair(&self, rowptr_seg: usize, v: VertexId) -> (usize, usize) {
        let seg = self.seg(rowptr_seg);
        let lo = u32_at(seg, v.index()) as usize;
        let hi = u32_at(seg, v.index() + 1) as usize;
        (lo, hi)
    }

    /// One row: the `lo..hi` window of a neighbor segment and, on a
    /// weighted container, of the matching weight segment.
    #[inline]
    fn row(
        &self,
        rowptr_seg: usize,
        neigh_seg: usize,
        weight_seg: usize,
        v: VertexId,
    ) -> OutEdges<'_> {
        let (lo, hi) = self.rowptr_pair(rowptr_seg, v);
        let window = lo * 4..hi * 4;
        let weights = self.weighted.then(|| &self.seg(weight_seg)[window.clone()]);
        OutEdges::mapped(&self.seg(neigh_seg)[window], weights)
    }
}

impl GraphView for MappedCsr {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn is_weighted(&self) -> bool {
        self.weighted
    }

    fn out_degree(&self, v: VertexId) -> u32 {
        let (lo, hi) = self.rowptr_pair(SEG_OUT_ROWPTR, v);
        (hi - lo) as u32
    }

    fn out_edges(&self, v: VertexId) -> OutEdges<'_> {
        self.row(SEG_OUT_ROWPTR, SEG_OUT_NEIGHBORS, SEG_OUT_WEIGHTS, v)
    }

    fn out_edge_base(&self, v: VertexId) -> usize {
        u32_at(self.seg(SEG_OUT_ROWPTR), v.index()) as usize
    }

    fn in_degree(&self, v: VertexId) -> u32 {
        let (lo, hi) = self.rowptr_pair(SEG_IN_ROWPTR, v);
        (hi - lo) as u32
    }

    fn in_edges(&self, v: VertexId) -> OutEdges<'_> {
        self.row(SEG_IN_ROWPTR, SEG_IN_NEIGHBORS, SEG_IN_WEIGHTS, v)
    }
}
