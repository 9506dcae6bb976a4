//! External-memory container construction from an edge stream.
//!
//! [`build_streaming`] is the one container writer
//! ([`write_container`](super::write_container) streams a resident
//! graph's rows through it). It assembles a container without ever
//! materializing the graph, in five steps:
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
//! 5. the container is created at its final size, and each of those
//!    buckets becomes rows the same way that stream straight into the
//!    out-segments at their offsets, re-spilling every edge as
//!    `(dst, src, weight)`; a second bucketed pass writes the in-adjacency
//!    mirror from those, then `order`, `rank` and, last, the header.
//!
//! Every container byte is written once, in place: there is no temporary
//! segment file and no copy pass, so peak disk use is the spill files
//! plus the container. Peak resident memory is ≈ 8 bytes per edge of one
//! bucket (its destinations and weight bits) plus two `n`-length `u32`
//! arrays (`order` and `rank`; the in-degree counts are dropped once
//! ranked), independent of total edge count, so graphs whose resident CSR
//! would not fit in RAM can still be built.
//!
//! Because each bucket covers a contiguous source range and is replayed
//! in stream order, its rows are exactly the resident build's rows: the
//! container holds `GraphBuilder::build` of the same stream under its
//! defaults (dedup on, self loops dropped, no symmetrization), relabeled
//! hub-first.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::write::{ContainerSummary, ContainerWriteError};
use super::{
    align_up, hub_first, inverse, segment_lens, Header, SegmentDesc, SegmentDigest, HEADER_BYTES,
    SEG_COUNT, SEG_IN_ROWPTR, SEG_NAMES, SEG_ORDER, SEG_OUT_ROWPTR, SEG_RANK,
};
use crate::builder::csr_rows;

/// Tuning and semantics knobs for [`build_streaming`].
#[derive(Debug, Clone, Copy)]
pub struct StreamBuildOptions {
    /// Mark the graph as carrying meaningful weights (writes the weight
    /// segments). Default `false`.
    pub weighted: bool,
    /// Vertices per spill bucket — the unit of resident memory during the
    /// build (one bucket's rows, ≈ 8 bytes per edge, are in RAM at a
    /// time, beside two `n`-length `u32` arrays). Default `1 << 18`.
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
    /// Creates the hidden sibling `.{name}.spill-{pid}` of `container`;
    /// a missing parent directory is an error, and is not created.
    fn create(container: &Path) -> io::Result<SpillDir> {
        let name = container
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "container".into());
        let dir = container
            .parent()
            .unwrap_or_else(|| Path::new("."))
            .join(format!(".{name}.spill-{}", std::process::id()));
        match std::fs::create_dir(&dir) {
            Err(e) if e.kind() != io::ErrorKind::AlreadyExists => Err(e),
            _ => Ok(SpillDir(dir)),
        }
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

/// Computes the aligned segment layout for the given byte lengths and
/// returns `(descriptors-with-zero-digests, total_file_bytes)`.
fn layout(seg_lens: &[u64; SEG_COUNT]) -> ([SegmentDesc; SEG_COUNT], u64) {
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

/// One segment streaming into its place in the container file, digesting
/// and counting what it writes. Each sits on its own handle: handles from
/// `try_clone` share one file position.
struct SegmentWriter {
    seg: usize,
    w: BufWriter<File>,
    digest: SegmentDigest,
    written: u64,
}

impl SegmentWriter {
    fn open(path: &Path, segs: &[SegmentDesc; SEG_COUNT], seg: usize) -> io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::Start(segs[seg].offset))?;
        Ok(SegmentWriter {
            seg,
            w: BufWriter::new(file),
            digest: SegmentDigest::new(),
            written: 0,
        })
    }

    fn put(&mut self, word: u32) -> io::Result<()> {
        let bytes = word.to_le_bytes();
        self.digest.update(&bytes);
        self.written += bytes.len() as u64;
        self.w.write_all(&bytes)
    }

    /// Flushes and records the segment's digest in `segs`; a length other
    /// than the layout's is an error.
    fn finish(mut self, segs: &mut [SegmentDesc; SEG_COUNT]) -> Result<(), ContainerWriteError> {
        self.w.flush()?;
        let desc = &mut segs[self.seg];
        if self.written != desc.len {
            return Err(ContainerWriteError::Invalid(format!(
                "segment {} wrote {} bytes, layout expected {}",
                SEG_NAMES[self.seg], self.written, desc.len
            )));
        }
        desc.digest = self.digest.finish();
        Ok(())
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
/// that deduplicated graph (see the module docs). `path` is created only
/// once the stream has been spilled and ranked, so a build refused before
/// that leaves no file and truncates no existing one.
///
/// # Errors
///
/// [`ContainerWriteError::Invalid`] when an edge references a vertex
/// `>= num_vertices` or the deduplicated edge count exceeds `u32::MAX`;
/// [`ContainerWriteError::Io`] on filesystem failure, a missing parent
/// directory of `path` included (it is not created). Spill files live in
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
    let dir = SpillDir::create(path)?;

    // Step 1: spill the raw stream into per-source-bucket files. Only this
    // step is generic over `feed`; the rest is `assemble`.
    let mut out_spill = open_bucket_writers(&dir, "out", n.div_ceil(opts.bucket_vertices))?;
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
    assemble(path, &dir, n, opts)
}

/// Steps 2–5 of [`build_streaming`], from the spilled stream to the
/// finished container. Not generic, so it is compiled once rather than
/// once per `feed` type, and the generic shell holds only step 1's loop.
fn assemble(
    path: &Path,
    dir: &SpillDir,
    n: usize,
    opts: &StreamBuildOptions,
) -> Result<ContainerSummary, ContainerWriteError> {
    let buckets = n.div_ceil(opts.bucket_vertices);
    let bucket = |b: usize| b * opts.bucket_vertices..n.min((b + 1) * opts.bucket_vertices);

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
    let mut out_spill = open_bucket_writers(dir, "out", buckets)?;
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

    // Step 5: the container, created only now and at its final size, so
    // the padding between segments reads as zeros. One direction per
    // pass: every bucket becomes canonical rows (csr_rows, reading its
    // spill file twice) that stream into the direction's row-pointer,
    // neighbor and weight segments. The edges are unique by now, so
    // neither pass deduplicates. The out pass re-spills each edge as
    // (dst, src, weight); an in-bucket thus lists every row's sources
    // ascending, the transpose order CsrGraph::from_parts produces.
    let (mut segs, file_bytes) = layout(&segment_lens(n as u64, m, opts.weighted));
    let mut file = File::create(path)?;
    file.set_len(file_bytes)?;
    let mut emit_rows = |prefix: &str,
                         first: usize,
                         mut in_spill: Option<&mut Vec<BufWriter<File>>>|
     -> Result<(), ContainerWriteError> {
        let mut rowptr = SegmentWriter::open(path, &segs, first)?;
        let mut neigh = SegmentWriter::open(path, &segs, first + 1)?;
        let mut weights = SegmentWriter::open(path, &segs, first + 2)?;
        rowptr.put(0)?;
        let mut base = 0u32;
        for b in 0..buckets {
            let rows = bucket(b);
            let spill = dir.file(&format!("{prefix}{b}"));
            let (offsets, ids, wbits) = csr_rows(rows.clone(), false, |sink| replay(&spill, sink))?;
            std::fs::remove_file(&spill)?;
            for (v, run) in rows.zip(offsets.windows(2)) {
                for e in run[0] as usize..run[1] as usize {
                    neigh.put(ids[e])?;
                    if opts.weighted {
                        weights.put(wbits[e])?;
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
                rowptr.put(base + run[1])?;
            }
            base += ids.len() as u32;
        }
        for w in [rowptr, neigh, weights] {
            w.finish(&mut segs)?;
        }
        Ok(())
    };
    let mut in_spill = open_bucket_writers(dir, "in", buckets)?;
    emit_rows("out", SEG_OUT_ROWPTR, Some(&mut in_spill))?;
    for w in &mut in_spill {
        w.flush()?;
    }
    drop(in_spill);
    emit_rows("in", SEG_IN_ROWPTR, None)?;
    for (seg, words) in [(SEG_ORDER, &order), (SEG_RANK, &rank)] {
        let mut w = SegmentWriter::open(path, &segs, seg)?;
        for &word in words {
            w.put(word)?;
        }
        w.finish(&mut segs)?;
    }

    // The header goes last, once every digest is known; the handle that
    // created the file still sits at offset 0.
    let header = Header {
        num_vertices: n as u64,
        num_edges: m,
        weighted: opts.weighted,
        segments: segs,
    };
    file.write_all(&header.encode())?;
    file.sync_all()?;

    Ok(ContainerSummary {
        vertices: n as u64,
        edges: m,
        weighted: opts.weighted,
        file_bytes,
    })
}
