//! External-memory container construction from an edge stream.
//!
//! [`build_streaming`] assembles a container without ever materializing
//! the graph. It runs in five steps:
//!
//! 1. the edge stream spills to per-source-bucket temporary files (12
//!    bytes per edge);
//! 2. each bucket becomes canonical CSR rows through the counting sort
//!    [`GraphBuilder`](crate::GraphBuilder) uses (`builder::csr_rows`:
//!    count, scatter in stream order, sort each row stably by
//!    destination, keep the first of a repeated one), reading its file
//!    twice instead of loading it; every kept edge counts toward its
//!    destination's in-degree and is re-spilled (a one-bucket build keeps
//!    its rows in memory instead);
//! 3. [`hub_first`] over those in-degrees gives `order` and its inverse
//!    `rank`;
//! 4. the kept edges replay as `(rank[src], rank[dst], weight)` into
//!    per-container-source-bucket files;
//! 5. each of those buckets becomes rows the same way and streams out to
//!    the out-segments, re-spilling every edge as `(dst, src, weight)`; a
//!    second bucketed pass builds the in-adjacency mirror from those.
//!
//! Peak resident memory is ≈ 8 bytes per edge of one bucket (its
//! destinations and weight bits) plus four `n`-length `u32` arrays (the
//! two row-pointer arrays, `order` and `rank`; the in-degree counts are
//! dropped once ranked), independent of total edge count, so graphs whose
//! resident CSR would not fit in RAM can still be built.
//!
//! Because each bucket covers a contiguous source range and is replayed
//! in stream order, its rows are exactly the resident build's rows, and
//! the output is bit-identical to [`write_container`](super::write_container)
//! over `GraphBuilder::build` of the same stream (defaults: dedup on,
//! self-loops dropped, no symmetrization).

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use super::write::{layout, rowptr_bytes, ContainerSummary, ContainerWriteError, CountingWriter};
use super::{digest_of, hub_first, inverse, segment_lens, Header, SegmentDigest, SEG_COUNT};
use crate::builder::csr_rows;

/// Tuning and semantics knobs for [`build_streaming`].
#[derive(Debug, Clone, Copy)]
pub struct StreamBuildOptions {
    /// Mark the graph as carrying meaningful weights (writes the weight
    /// segments). Default `false`.
    pub weighted: bool,
    /// Vertices per spill bucket — the unit of resident memory during the
    /// build (one bucket's rows, ≈ 8 bytes per edge, are in RAM at a
    /// time, beside four `n`-length `u32` arrays). Default `1 << 18`.
    pub bucket_vertices: usize,
}

impl Default for StreamBuildOptions {
    fn default() -> Self {
        StreamBuildOptions {
            weighted: false,
            bucket_vertices: 1 << 18,
        }
    }
}

/// Temporary spill directory, removed on drop (including error paths).
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(container: &Path) -> io::Result<SpillDir> {
        let name = container
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "container".into());
        let dir = container
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .join(format!(".{name}.spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(SpillDir(dir))
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A segment temp file that digests everything written through it.
struct DigestingWriter {
    w: BufWriter<File>,
    digest: SegmentDigest,
    path: PathBuf,
}

impl DigestingWriter {
    fn create(path: PathBuf) -> io::Result<DigestingWriter> {
        Ok(DigestingWriter {
            w: BufWriter::new(File::create(&path)?),
            digest: SegmentDigest::new(),
            path,
        })
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.w.write_all(bytes)?;
        self.digest.update(bytes);
        Ok(())
    }

    /// Flushes and returns `(path, digest)`.
    fn finish(mut self) -> io::Result<(PathBuf, u64)> {
        self.w.flush()?;
        Ok((self.path, self.digest.finish()))
    }
}

/// One spilled edge record: two ids and a weight bit pattern.
const RECORD_BYTES: usize = 12;

fn push_record(w: &mut BufWriter<File>, a: u32, b: u32, wbits: u32) -> io::Result<()> {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..4].copy_from_slice(&a.to_le_bytes());
    rec[4..8].copy_from_slice(&b.to_le_bytes());
    rec[8..12].copy_from_slice(&wbits.to_le_bytes());
    w.write_all(&rec)
}

/// Pushes every record of spill file `path` through `sink`, in file order.
fn replay(path: &Path, sink: &mut dyn FnMut(u32, u32, u32)) -> io::Result<()> {
    let records = std::fs::metadata(path)?.len() / RECORD_BYTES as u64;
    let mut r = BufReader::with_capacity(1 << 16, File::open(path)?);
    let mut rec = [0u8; RECORD_BYTES];
    for _ in 0..records {
        r.read_exact(&mut rec)?;
        let word = |at: usize| u32::from_le_bytes([rec[at], rec[at + 1], rec[at + 2], rec[at + 3]]);
        sink(word(0), word(4), word(8));
    }
    Ok(())
}

/// Calls `f(row, col, payload)` for every entry of canonical rows whose
/// first row is `lo`, in row order.
fn for_each_entry<E>(
    lo: usize,
    (offsets, cols, payload): &(Vec<u32>, Vec<u32>, Vec<u32>),
    mut f: impl FnMut(u32, u32, u32) -> Result<(), E>,
) -> Result<(), E> {
    for (v, run) in (lo as u32..).zip(offsets.windows(2)) {
        for e in run[0] as usize..run[1] as usize {
            f(v, cols[e], payload[e])?;
        }
    }
    Ok(())
}

fn open_bucket_writers(
    dir: &SpillDir,
    prefix: &str,
    buckets: usize,
) -> io::Result<Vec<BufWriter<File>>> {
    (0..buckets)
        .map(|b| {
            Ok(BufWriter::new(File::create(
                dir.file(&format!("{prefix}{b}")),
            )?))
        })
        .collect()
}

/// Builds a container at `path` from the edge stream `feed` produces,
/// without materializing the graph in memory.
///
/// `feed` is called once with a sink closure and must push every
/// `(src, dst, weight)` triple through it — e.g. by forwarding
/// [`rmat_edges`](crate::generators::rmat_edges) or parsing an edge-list
/// file line by line. Semantics match `GraphBuilder` defaults: self loops
/// dropped, parallel edges deduplicated keeping the first-streamed weight.
/// The container numbers its vertices hub-first over the in-degrees of
/// that deduplicated graph (see the module docs). The resulting file is
/// byte-identical to [`write_container`](super::write_container) over the
/// resident build of the same stream.
///
/// # Errors
///
/// [`ContainerWriteError::Invalid`] when an edge references a vertex
/// `>= num_vertices` or the deduplicated edge count exceeds `u32::MAX`;
/// [`ContainerWriteError::Io`] on filesystem failure. Spill files live in
/// a hidden sibling directory of `path` and are removed on all paths.
///
/// # Panics
///
/// Panics if `bucket_vertices` is zero.
pub fn build_streaming<F>(
    path: &Path,
    num_vertices: usize,
    opts: &StreamBuildOptions,
    feed: F,
) -> Result<ContainerSummary, ContainerWriteError>
where
    F: FnOnce(&mut dyn FnMut(u32, u32, f32)),
{
    assert!(opts.bucket_vertices > 0, "bucket capacity must be nonzero");
    let n = num_vertices;
    if u32::try_from(n).is_err() {
        return Err(ContainerWriteError::Invalid(format!(
            "{n} vertices exceed the u32 id space"
        )));
    }
    let buckets = n.div_ceil(opts.bucket_vertices);
    let bucket = |b: usize| b * opts.bucket_vertices..n.min((b + 1) * opts.bucket_vertices);
    let dir = SpillDir::create(path)?;

    // Step 1: spill the raw stream into per-source-bucket files.
    let mut out_spill = open_bucket_writers(&dir, "out", buckets)?;
    let mut io_err: Option<io::Error> = None;
    let mut bad_edge: Option<String> = None;
    {
        let mut sink = |s: u32, d: u32, w: f32| {
            if io_err.is_some() || bad_edge.is_some() {
                return;
            }
            if s as usize >= n || d as usize >= n {
                bad_edge = Some(format!("edge ({s} -> {d}) out of range for {n} vertices"));
                return;
            }
            if s == d {
                return; // self loops dropped, as in GraphBuilder
            }
            let b = s as usize / opts.bucket_vertices;
            if let Err(e) = push_record(&mut out_spill[b], s, d, w.to_bits()) {
                io_err = Some(e);
            }
        };
        feed(&mut sink);
    }
    if let Some(e) = io_err {
        return Err(e.into());
    }
    if let Some(what) = bad_edge {
        return Err(ContainerWriteError::Invalid(what));
    }
    for w in &mut out_spill {
        w.flush()?;
    }
    drop(out_spill);

    // Step 2: every bucket's kept edges, counted by destination. They are
    // re-spilled in stream ids; a one-bucket build keeps its rows instead.
    let mut in_degrees = vec![0u32; n];
    let mut kept_rows = None;
    let mut kept = (buckets > 1)
        .then(|| File::create(dir.file("kept")).map(BufWriter::new))
        .transpose()?;
    let mut m = 0u64;
    for b in 0..buckets {
        let rows = bucket(b);
        let spill = dir.file(&format!("out{b}"));
        let bucket_rows = csr_rows(rows.clone(), true, |sink| replay(&spill, sink))?;
        std::fs::remove_file(&spill)?;
        m += bucket_rows.1.len() as u64;
        if m > u64::from(u32::MAX) {
            return Err(ContainerWriteError::Invalid(format!(
                "deduplicated edge count exceeds u32::MAX at bucket {b}"
            )));
        }
        for_each_entry(rows.start, &bucket_rows, |s, d, wbits| {
            in_degrees[d as usize] += 1;
            match kept.as_mut() {
                Some(w) => push_record(w, s, d, wbits),
                None => Ok(()),
            }
        })?;
        if kept.is_none() {
            kept_rows = Some(bucket_rows);
        }
    }
    if let Some(w) = kept.as_mut() {
        w.flush()?;
    }
    drop(kept);

    // Step 3: the container's vertex order.
    let order = hub_first(&in_degrees);
    drop(in_degrees);
    let rank = inverse(&order);

    // Step 4: the kept edges, renamed, into container-source buckets.
    let mut out_spill = open_bucket_writers(&dir, "out", buckets)?;
    let mut renamed = |s: u32, d: u32, wbits: u32| {
        let (s, d) = (rank[s as usize], rank[d as usize]);
        push_record(
            &mut out_spill[s as usize / opts.bucket_vertices],
            s,
            d,
            wbits,
        )
    };
    match kept_rows.take() {
        Some(rows) => for_each_entry(0, &rows, &mut renamed)?,
        None if buckets == 0 => {} // no vertices, so no edges
        None => {
            let mut failed = Ok(());
            replay(&dir.file("kept"), &mut |s, d, wbits| {
                if failed.is_ok() {
                    failed = renamed(s, d, wbits);
                }
            })?;
            failed?;
            std::fs::remove_file(dir.file("kept"))?;
        }
    }
    for w in &mut out_spill {
        w.flush()?;
    }
    drop(out_spill);

    // Step 5, one direction per pass: every bucket becomes canonical rows
    // (csr_rows, reading its spill file twice) that stream out to the
    // direction's segments. The edges are unique by now, so neither pass
    // deduplicates. The out pass re-spills each edge as (dst, src,
    // weight); an in-bucket thus lists every row's sources ascending, the
    // transpose order CsrGraph::from_parts produces.
    let emit_rows = |prefix: &str,
                     mut in_spill: Option<&mut Vec<BufWriter<File>>>|
     -> Result<_, ContainerWriteError> {
        let mut rowptr: Vec<u32> = vec![0; n + 1];
        let mut neigh = DigestingWriter::create(dir.file(&format!("{prefix}_neigh.seg")))?;
        let mut weights = DigestingWriter::create(dir.file(&format!("{prefix}_weights.seg")))?;
        for b in 0..buckets {
            let rows = bucket(b);
            let spill = dir.file(&format!("{prefix}{b}"));
            let (offsets, ids, wbits) = csr_rows(rows.clone(), false, |sink| replay(&spill, sink))?;
            std::fs::remove_file(&spill)?;
            let base = rowptr[rows.start];
            for (v, run) in rows.zip(offsets.windows(2)) {
                rowptr[v + 1] = base + run[1];
                for e in run[0] as usize..run[1] as usize {
                    neigh.put(&ids[e].to_le_bytes())?;
                    if opts.weighted {
                        weights.put(&wbits[e].to_le_bytes())?;
                    }
                    if let Some(spill) = in_spill.as_deref_mut() {
                        let d = ids[e];
                        push_record(
                            &mut spill[d as usize / opts.bucket_vertices],
                            d,
                            v as u32,
                            wbits[e],
                        )?;
                    }
                }
            }
        }
        Ok((rowptr, neigh, weights))
    };
    let mut in_spill = open_bucket_writers(&dir, "in", buckets)?;
    let (out_rowptr, out_neigh, out_weights) = emit_rows("out", Some(&mut in_spill))?;
    for w in &mut in_spill {
        w.flush()?;
    }
    drop(in_spill);
    let (in_rowptr, in_neigh, in_weights) = emit_rows("in", None)?;
    debug_assert_eq!(u64::from(out_rowptr[n]), m);

    // Assemble the container: all digests are known before the header is
    // written, so the file streams out front to back.
    let out_rowptr_bytes = rowptr_bytes(&out_rowptr);
    let in_rowptr_bytes = rowptr_bytes(&in_rowptr);
    let order_bytes = rowptr_bytes(&order);
    let rank_bytes = rowptr_bytes(&rank);
    drop(out_rowptr);
    drop(in_rowptr);
    drop(order);
    drop(rank);

    let (out_neigh_path, out_neigh_digest) = out_neigh.finish()?;
    let (out_w_path, out_w_digest) = out_weights.finish()?;
    let (in_neigh_path, in_neigh_digest) = in_neigh.finish()?;
    let (in_w_path, in_w_digest) = in_weights.finish()?;

    // Each segment's length is checked against this layout as it is
    // copied in below.
    let (mut segs, file_bytes) = layout(&segment_lens(n as u64, m, opts.weighted));
    let digests = [
        digest_of(&out_rowptr_bytes),
        out_neigh_digest,
        out_w_digest,
        digest_of(&in_rowptr_bytes),
        in_neigh_digest,
        in_w_digest,
        digest_of(&order_bytes),
        digest_of(&rank_bytes),
    ];
    for (seg, d) in segs.iter_mut().zip(digests) {
        seg.digest = d;
    }
    let header = Header {
        num_vertices: n as u64,
        num_edges: m,
        weighted: opts.weighted,
        segments: segs,
    };

    let mut w = CountingWriter::new(BufWriter::new(File::create(path)?));
    w.write_all(&header.encode())?;
    let sources: [Option<&Path>; SEG_COUNT] = [
        None, // out_rowptr: in memory
        Some(&out_neigh_path),
        Some(&out_w_path),
        None, // in_rowptr: in memory
        Some(&in_neigh_path),
        Some(&in_w_path),
        None,
        None,
    ];
    let in_memory = [
        Some(&out_rowptr_bytes),
        None,
        None,
        Some(&in_rowptr_bytes),
        None,
        None,
        Some(&order_bytes),
        Some(&rank_bytes),
    ];
    for i in 0..SEG_COUNT {
        w.pad_to(segs[i].offset)?;
        if let Some(bytes) = in_memory[i] {
            w.write_all(bytes)?;
        } else if let Some(src) = sources[i] {
            io::copy(&mut BufReader::new(File::open(src)?), &mut w)?;
        }
        if w.pos() != segs[i].offset + segs[i].len {
            return Err(ContainerWriteError::Invalid(format!(
                "segment {i} wrote {} bytes, layout expected {}",
                w.pos() - segs[i].offset,
                segs[i].len
            )));
        }
    }
    debug_assert_eq!(w.pos(), file_bytes);
    let mut inner = w.into_inner();
    inner.flush()?;
    inner
        .into_inner()
        .map_err(io::IntoInnerError::into_error)?
        .sync_all()?;

    Ok(ContainerSummary {
        vertices: n as u64,
        edges: m,
        weighted: opts.weighted,
        file_bytes,
    })
}
