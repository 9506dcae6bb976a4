//! On-disk, mmap-able CSR container — graphs beyond resident memory.
//!
//! A container is a binary file laid out so a read-only memory mapping of
//! it **is** the CSR, with no decode step and no resident copy. A
//! [`MappedCsr`] implements [`GraphView`](crate::GraphView) directly over
//! the mapped segments, so every execution backend — the golden engines,
//! the cycle-level accelerator with its slice-swapping machinery, the
//! shard-parallel engine, turbo — runs unmodified against disk-resident
//! graphs, with the OS page cache deciding what is hot.
//!
//! # Vertex ids
//!
//! A container numbers its vertices hub-first: container vertex `v` is
//! vertex `order[v]` of the graph or stream it was written from, where
//! [`hub_first`] sorts by in-degree, highest first, ties by the original
//! id. Every engine keeps its per-vertex state (value, pending delta)
//! direct-mapped by id, so the vertices most deposits land on share cache
//! lines at the low ids instead of being scattered over the whole range
//! (EXPERIMENTS.md, "Vertex order"). The mapped graph *is* the relabeled
//! graph — every [`GraphView`](crate::GraphView) call speaks container
//! ids — and the two stored permutations translate at the edges:
//! [`MappedCsr::stream_id`] and [`MappedCsr::container_id`].
//!
//! # Layout (`GPC1`, version 3, little-endian)
//!
//! ```text
//! offset 0    fixed 256-byte header:
//!               magic "GPC1" · version u16 · flags u16 (bit 0: weighted)
//!               num_vertices u64 · num_edges u64 · 8 reserved zero bytes
//!               8 segment descriptors (offset u64, len u64, digest u64)
//!               header digest u64 over bytes [0, 224) at 224
//!               · zero padding
//! then        segments, each 64-byte aligned, in this order:
//!               out_rowptr   (num_vertices + 1) × u32
//!               out_neighbors  num_edges × u32
//!               out_weights    num_edges × f32   (empty when unweighted)
//!               in_rowptr    (num_vertices + 1) × u32
//!               in_neighbors   num_edges × u32
//!               in_weights     num_edges × f32   (empty when unweighted)
//!               order          num_vertices × u32 (container id -> stream id)
//!               rank           num_vertices × u32 (stream id -> container id)
//! ```
//!
//! Design rationale, following the Dann et al. access-pattern studies (the
//! two "Memory Access Patterns for/of Graph Processing Accelerators"
//! papers): graph accelerators live or die on request-size distribution
//! and row-buffer locality, so the on-disk format keeps each access class
//! an engine issues in its own dense, 64-byte-aligned segment — row-pointer
//! reads are two adjacent words, edge-list reads are contiguous bursts, and
//! neither ever straddles a transfer granule because of header skew. The
//! file holds the graph and nothing else: where a slice ends is a run-time
//! property of the machine's queue capacity (§IV-F), decided by
//! [`Partition::contiguous`](crate::partition::Partition::contiguous) over
//! the mapped graph like over any other.
//!
//! Integrity: every segment (and the header) carries a 64-bit digest with
//! the same index-mixed, order-independent construction as
//! [`gp_mem::integrity::ShadowChecksum`] — each 8-byte word contributes
//! [`slot_digest`]`(word_index, word)` to a
//! wrapping sum, so a flipped bit, a swapped word, or a resized segment all
//! change the digest. [`MappedCsr::open`] validates structure (magic,
//! version, alignment, extents, row-pointer monotonicity, `order` and
//! `rank` inverse permutations);
//! [`MappedCsr::open_verified`] additionally recomputes every digest.
//!
//! Containers are produced one way: [`build_streaming`] assembles a
//! container from an *edge stream* (e.g.
//! [`rmat_edges`](crate::generators::rmat_edges)) without ever
//! materializing the graph — edges spill to bucketed temporary files, each
//! bucket is stable-sorted and deduplicated independently, the kept edges
//! are replayed under the hub-first ranks, and each segment streams
//! straight into its place in the file. [`write_container`] streams a
//! resident [`CsrGraph`](crate::CsrGraph)'s rows through it; the
//! differential oracle uses that path to pin mapped ≡ resident. A container
//! holds its graph as `GraphBuilder` defaults build it: no self loops, no
//! parallel edges.

mod mapped;
#[allow(unsafe_code)]
mod mmap;
mod stream;
mod traffic;
mod write;

pub use mapped::MappedCsr;
pub use stream::{build_streaming, StreamBuildOptions};
pub use traffic::{MeteredView, Traffic};
pub use write::{write_container, ContainerSummary, ContainerWriteError};

use gp_mem::integrity::slot_digest;

use crate::io::ReadGraphError;

/// Container magic: the ASCII bytes `GPC1` as a little-endian `u32`.
pub const CONTAINER_MAGIC: u32 = u32::from_le_bytes(*b"GPC1");

/// Format version this build reads and writes.
pub const CONTAINER_VERSION: u16 = 3;

/// Required alignment of every segment, matching the DRAM transfer granule
/// the memory models assume (`gp_mem::LINE_BYTES`).
pub const SEGMENT_ALIGN: u64 = 64;

/// Fixed size of the header region; the first segment starts here.
pub const HEADER_BYTES: u64 = 256;

/// Flag bit: the graph carries meaningful edge weights.
const FLAG_WEIGHTED: u16 = 1;

/// Number of segments in a container, in file order.
pub(crate) const SEG_COUNT: usize = 8;

/// Segment indexes into [`Header::segments`].
pub(crate) const SEG_OUT_ROWPTR: usize = 0;
pub(crate) const SEG_OUT_NEIGHBORS: usize = 1;
pub(crate) const SEG_OUT_WEIGHTS: usize = 2;
pub(crate) const SEG_IN_ROWPTR: usize = 3;
pub(crate) const SEG_IN_NEIGHBORS: usize = 4;
pub(crate) const SEG_IN_WEIGHTS: usize = 5;
pub(crate) const SEG_ORDER: usize = 6;
pub(crate) const SEG_RANK: usize = 7;

/// Human-readable segment names, indexed like [`Header::segments`].
pub(crate) const SEG_NAMES: [&str; SEG_COUNT] = [
    "out_rowptr",
    "out_neighbors",
    "out_weights",
    "in_rowptr",
    "in_neighbors",
    "in_weights",
    "order",
    "rank",
];

/// Byte offset of the header digest, just past the last segment
/// descriptor; it covers bytes `[0, HEADER_DIGEST_AT)`. Public so
/// corruption tests can re-seal a deliberately patched header.
pub const HEADER_DIGEST_AT: usize = 32 + SEG_COUNT * 24;

const _: () = assert!(HEADER_DIGEST_AT + 8 <= HEADER_BYTES as usize);

/// The container's vertex order: `order[v]` is the original id of
/// container vertex `v`, given each original vertex's in-degree. Highest
/// in-degree first, ties by original id ascending. The container builder
/// calls it on the in-degrees of the graph the container holds.
#[must_use]
pub fn hub_first(in_degrees: &[u32]) -> Vec<u32> {
    // Complemented degree above the id: one ascending sort of unique keys.
    let mut keys: Vec<u64> = (0u32..)
        .zip(in_degrees)
        .map(|(v, &d)| u64::from(!d) << 32 | u64::from(v))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| k as u32).collect()
}

/// The inverse of a permutation: `inverse(order)[order[v]] == v`.
pub(crate) fn inverse(order: &[u32]) -> Vec<u32> {
    let mut rank = vec![0u32; order.len()];
    for (v, &s) in (0u32..).zip(order) {
        rank[s as usize] = v;
    }
    rank
}

/// Byte length of each segment, in file order, of a container with `n`
/// vertices and `m` edges.
pub(crate) fn segment_lens(n: u64, m: u64, weighted: bool) -> [u64; SEG_COUNT] {
    let wlen = if weighted { m * 4 } else { 0 };
    [
        (n + 1) * 4,
        m * 4,
        wlen,
        (n + 1) * 4,
        m * 4,
        wlen,
        n * 4,
        n * 4,
    ]
}

/// Rounds `off` up to the next [`SEGMENT_ALIGN`] boundary.
pub(crate) fn align_up(off: u64) -> u64 {
    off.div_ceil(SEGMENT_ALIGN) * SEGMENT_ALIGN
}

/// Location and integrity digest of one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SegmentDesc {
    /// Byte offset from the start of the file.
    pub offset: u64,
    /// Length in bytes (0 for absent weight segments).
    pub len: u64,
    /// [`SegmentDigest`] of the segment bytes.
    pub digest: u64,
}

/// Streaming digest over a byte sequence, reusing the
/// [`ShadowChecksum`](gp_mem::integrity::ShadowChecksum)-style mixing:
/// each 8-byte little-endian word (zero-padded tail) contributes
/// `slot_digest(word_index, word)` to a wrapping sum, and the total length
/// is folded in at the end so padding is not confusable with real zeros.
#[derive(Debug, Clone, Default)]
pub struct SegmentDigest {
    sum: u64,
    words: u64,
    total_len: u64,
    tail: [u8; 8],
    tail_len: usize,
}

impl SegmentDigest {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Self {
        SegmentDigest::default()
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.tail_len > 0 {
            let need = 8 - self.tail_len;
            let take = need.min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len == 8 {
                self.absorb(self.tail);
                self.tail_len = 0;
            } else {
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.absorb(c.try_into().expect("chunks_exact(8)"));
        }
        let rem = chunks.remainder();
        self.tail[..rem.len()].copy_from_slice(rem);
        self.tail_len = rem.len();
    }

    fn absorb(&mut self, word: [u8; 8]) {
        self.sum = self
            .sum
            .wrapping_add(slot_digest(self.words as usize, u64::from_le_bytes(word)));
        self.words += 1;
    }

    /// Finishes the digest (zero-padding any partial tail word).
    #[must_use]
    pub fn finish(mut self) -> u64 {
        if self.tail_len > 0 {
            self.tail[self.tail_len..].fill(0);
            self.absorb(self.tail);
        }
        self.sum
            .wrapping_add(slot_digest(self.words as usize, self.total_len))
    }
}

/// Digest of a complete byte slice.
#[must_use]
pub(crate) fn digest_of(bytes: &[u8]) -> u64 {
    let mut d = SegmentDigest::new();
    d.update(bytes);
    d.finish()
}

/// Decoded container header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Header {
    pub num_vertices: u64,
    pub num_edges: u64,
    pub weighted: bool,
    pub segments: [SegmentDesc; SEG_COUNT],
}

impl Header {
    /// Serializes the header into its fixed 256-byte region, computing the
    /// embedded header digest.
    pub fn encode(&self) -> [u8; HEADER_BYTES as usize] {
        let mut buf = [0u8; HEADER_BYTES as usize];
        buf[0..4].copy_from_slice(&CONTAINER_MAGIC.to_le_bytes());
        buf[4..6].copy_from_slice(&CONTAINER_VERSION.to_le_bytes());
        let flags: u16 = if self.weighted { FLAG_WEIGHTED } else { 0 };
        buf[6..8].copy_from_slice(&flags.to_le_bytes());
        buf[8..16].copy_from_slice(&self.num_vertices.to_le_bytes());
        buf[16..24].copy_from_slice(&self.num_edges.to_le_bytes());
        // buf[24..32] reserved, zero.
        for (i, seg) in self.segments.iter().enumerate() {
            let at = 32 + i * 24;
            buf[at..at + 8].copy_from_slice(&seg.offset.to_le_bytes());
            buf[at + 8..at + 16].copy_from_slice(&seg.len.to_le_bytes());
            buf[at + 16..at + 24].copy_from_slice(&seg.digest.to_le_bytes());
        }
        let digest = digest_of(&buf[..HEADER_DIGEST_AT]);
        buf[HEADER_DIGEST_AT..HEADER_DIGEST_AT + 8].copy_from_slice(&digest.to_le_bytes());
        buf
    }

    /// Parses and integrity-checks the header region.
    ///
    /// # Errors
    ///
    /// [`ReadGraphError::Truncated`] when shorter than the fixed header,
    /// [`ReadGraphError::BadMagic`] / [`ReadGraphError::BadVersion`] on an
    /// alien, older or future file, [`ReadGraphError::ChecksumMismatch`] when the
    /// header digest disagrees, and [`ReadGraphError::Corrupt`] for
    /// unknown flag bits.
    pub fn decode(bytes: &[u8]) -> Result<Header, ReadGraphError> {
        if bytes.len() < HEADER_BYTES as usize {
            return Err(ReadGraphError::Truncated);
        }
        let u16_at = |at: usize| u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        if bytes[0..4] != CONTAINER_MAGIC.to_le_bytes() {
            return Err(ReadGraphError::BadMagic);
        }
        let version = u16_at(4);
        if version != CONTAINER_VERSION {
            return Err(ReadGraphError::BadVersion(version));
        }
        let stored = u64_at(HEADER_DIGEST_AT);
        let computed = digest_of(&bytes[..HEADER_DIGEST_AT]);
        if stored != computed {
            return Err(ReadGraphError::ChecksumMismatch(format!(
                "header digest {computed:#018x} != stored {stored:#018x}"
            )));
        }
        let flags = u16_at(6);
        if flags & !FLAG_WEIGHTED != 0 {
            return Err(ReadGraphError::Corrupt(format!(
                "unknown header flag bits {flags:#06x}"
            )));
        }
        let mut segments = [SegmentDesc::default(); SEG_COUNT];
        for (i, seg) in segments.iter_mut().enumerate() {
            let at = 32 + i * 24;
            *seg = SegmentDesc {
                offset: u64_at(at),
                len: u64_at(at + 8),
                digest: u64_at(at + 16),
            };
        }
        Ok(Header {
            num_vertices: u64_at(8),
            num_edges: u64_at(16),
            weighted: flags & FLAG_WEIGHTED != 0,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_distinguishes_padding_from_zeros() {
        assert_ne!(digest_of(b"abc"), digest_of(b"abc\0\0\0\0\0"));
        assert_ne!(digest_of(b""), digest_of(b"\0"));
        assert_eq!(digest_of(b"graphpulse"), digest_of(b"graphpulse"));
    }

    #[test]
    fn digest_is_incremental_over_chunking() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = digest_of(&data);
        for split in [1usize, 3, 7, 8, 13, 64, 999] {
            let mut d = SegmentDigest::new();
            for chunk in data.chunks(split) {
                d.update(chunk);
            }
            assert_eq!(d.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn header_round_trips() {
        let mut segments = [SegmentDesc::default(); SEG_COUNT];
        for (i, s) in segments.iter_mut().enumerate() {
            *s = SegmentDesc {
                offset: HEADER_BYTES + (i as u64) * 128,
                len: 64 + i as u64,
                digest: 0xDEAD_0000 + i as u64,
            };
        }
        let h = Header {
            num_vertices: 42,
            num_edges: 999,
            weighted: true,
            segments,
        };
        let bytes = h.encode();
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn hub_first_ranks_by_in_degree_then_id() {
        assert_eq!(hub_first(&[1, 3, 0, 3, 2]), [1, 3, 4, 0, 2]);
        assert_eq!(inverse(&[1, 3, 4, 0, 2]), [3, 0, 4, 1, 2]);
        assert_eq!(hub_first(&[u32::MAX, 0, u32::MAX]), [0, 2, 1]);
    }

    #[test]
    fn header_detects_its_own_corruption() {
        let h = Header {
            num_vertices: 8,
            num_edges: 16,
            weighted: false,
            segments: [SegmentDesc::default(); SEG_COUNT],
        };
        let mut bytes = h.encode();
        bytes[16] ^= 1; // num_edges
        assert!(matches!(
            Header::decode(&bytes),
            Err(ReadGraphError::ChecksumMismatch(_))
        ));
    }
}
