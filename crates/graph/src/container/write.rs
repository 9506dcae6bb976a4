//! Serializing a resident [`CsrGraph`] into a container file.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use super::{
    align_up, digest_of, hub_first, inverse, segment_lens, Header, SegmentDesc, HEADER_BYTES,
    SEG_COUNT,
};
use crate::{CsrGraph, VertexId};

/// Failure writing a container.
#[derive(Debug)]
pub enum ContainerWriteError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The input cannot be represented in the format (or the edge stream
    /// fed to the streaming builder was itself invalid).
    Invalid(String),
}

impl fmt::Display for ContainerWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerWriteError::Io(e) => write!(f, "i/o error writing container: {e}"),
            ContainerWriteError::Invalid(what) => write!(f, "cannot write container: {what}"),
        }
    }
}

impl std::error::Error for ContainerWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerWriteError::Io(e) => Some(e),
            ContainerWriteError::Invalid(_) => None,
        }
    }
}

impl From<io::Error> for ContainerWriteError {
    fn from(e: io::Error) -> Self {
        ContainerWriteError::Io(e)
    }
}

/// What a container write produced; returned by [`write_container`] and
/// [`build_streaming`](super::build_streaming).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerSummary {
    /// Vertices in the written graph.
    pub vertices: u64,
    /// Directed edges written (deduplicated, for a streamed build).
    pub edges: u64,
    /// Whether weight segments were written.
    pub weighted: bool,
    /// Final file size in bytes.
    pub file_bytes: u64,
}

/// A writer that tracks its absolute position so segments can be padded to
/// their aligned offsets.
pub(crate) struct CountingWriter<W: Write> {
    inner: W,
    pos: u64,
}

impl<W: Write> CountingWriter<W> {
    pub fn new(inner: W) -> Self {
        CountingWriter { inner, pos: 0 }
    }

    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Writes zero bytes until the position reaches `offset`.
    pub fn pad_to(&mut self, offset: u64) -> io::Result<()> {
        debug_assert!(offset >= self.pos, "cannot pad backwards");
        const ZEROS: [u8; 64] = [0; 64];
        let mut gap = offset - self.pos;
        while gap > 0 {
            let take = gap.min(ZEROS.len() as u64) as usize;
            self.write_all(&ZEROS[..take])?;
            gap -= take as u64;
        }
        Ok(())
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.pos += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Computes the aligned segment layout for the given byte lengths and
/// returns `(descriptors-with-zero-digests, total_file_bytes)`.
pub(crate) fn layout(seg_lens: &[u64; SEG_COUNT]) -> ([SegmentDesc; SEG_COUNT], u64) {
    let mut segs = [SegmentDesc::default(); SEG_COUNT];
    let mut off = HEADER_BYTES;
    for (desc, &len) in segs.iter_mut().zip(seg_lens) {
        off = align_up(off);
        desc.offset = off;
        desc.len = len;
        off += len;
    }
    (segs, off)
}

/// Serializes a `u32` slice (row pointers, a permutation) little-endian.
pub(crate) fn rowptr_bytes(rowptr: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(rowptr.len() * 4);
    for v in rowptr {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

fn neighbor_bytes(neighbors: &[VertexId]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(neighbors.len() * 4);
    for v in neighbors {
        buf.extend_from_slice(&v.get().to_le_bytes());
    }
    buf
}

fn weight_bytes(weights: &[f32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(weights.len() * 4);
    for w in weights {
        buf.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    buf
}

/// Writes `graph` as a container at `path`, numbered hub-first: the
/// container holds `graph.relabel(&rank)` where `rank` inverts
/// [`hub_first`] over `graph`'s in-degrees, and stores `order` and `rank`
/// beside it. Every edge is kept, self loops and parallel edges included.
///
/// The relabeled copy is resident for the whole write (a second copy of
/// the graph); its segments are then serialized one at a time, with the
/// header back-patched once all digests are known.
///
/// # Errors
///
/// [`ContainerWriteError::Io`] on filesystem failure.
pub fn write_container(
    graph: &CsrGraph,
    path: &Path,
) -> Result<ContainerSummary, ContainerWriteError> {
    let (in_off, _, _) = graph.in_parts();
    let in_degrees: Vec<u32> = in_off.windows(2).map(|w| w[1] - w[0]).collect();
    let order = hub_first(&in_degrees);
    let rank = inverse(&order);
    let graph = graph.relabel(&rank);
    let (out_off, out_nei, out_w) = graph.out_parts();
    let (in_off, in_nei, in_w) = graph.in_parts();
    let weighted = graph.is_weighted();

    let n = graph.num_vertices() as u64;
    let m = graph.num_edges() as u64;
    let (mut segs, file_bytes) = layout(&segment_lens(n, m, weighted));

    let file = File::create(path)?;
    let mut w = CountingWriter::new(BufWriter::new(file));
    w.pad_to(HEADER_BYTES)?; // placeholder header, patched below

    // Segment payloads in file order. Weight segments on unweighted graphs
    // serialize as empty (the resident arrays hold implicit 1.0s).
    let payloads: [Vec<u8>; SEG_COUNT] = [
        rowptr_bytes(out_off),
        neighbor_bytes(out_nei),
        if weighted {
            weight_bytes(out_w)
        } else {
            Vec::new()
        },
        rowptr_bytes(in_off),
        neighbor_bytes(in_nei),
        if weighted {
            weight_bytes(in_w)
        } else {
            Vec::new()
        },
        rowptr_bytes(&order),
        rowptr_bytes(&rank),
    ];
    for (desc, payload) in segs.iter_mut().zip(payloads) {
        w.pad_to(desc.offset)?;
        desc.digest = digest_of(&payload);
        w.write_all(&payload)?;
    }
    debug_assert_eq!(w.pos(), file_bytes);

    let header = Header {
        num_vertices: n,
        num_edges: m,
        weighted,
        segments: segs,
    };
    let mut inner = w.into_inner();
    inner.flush()?;
    let mut file = inner.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header.encode())?;
    file.sync_all()?;

    Ok(ContainerSummary {
        vertices: n,
        edges: m,
        weighted,
        file_bytes,
    })
}
