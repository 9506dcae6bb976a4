//! Edge-list to CSR construction: [`GraphBuilder`], and the one counting
//! sort ([`csr_rows`]) that turns any replayable edge stream into
//! canonical CSR rows, shared with the container builder.

use std::convert::Infallible;
use std::iter::zip;
use std::ops::Range;

use crate::{CsrGraph, VertexId};

/// CSR rows as `(offsets, columns, payloads)`: row `i` of the range is
/// `offsets[i]..offsets[i + 1]` of the two parallel arrays.
type Rows<C, P> = (Vec<u32>, Vec<C>, Vec<P>);

/// Canonical CSR rows over the vertex range `rows` from a record stream:
/// every `(row, col, payload)` record `replay` pushes through its sink
/// lands in its row in stream order, each row is then sorted stably by
/// `col`, and with `dedup` only the first record of a repeated `col`
/// stays. That is a global stable sort by `(row, col)` followed by
/// keep-first deduplication, done as a counting sort: `replay` is called
/// twice (count, then scatter) and must push the same records both times,
/// all with `row` inside `rows`. Nothing beside the output is held but one
/// row's `(col, payload)` pairs while that row is sorted.
///
/// # Errors
///
/// Whatever `replay` returns.
pub(crate) fn csr_rows<C, P, E>(
    rows: Range<usize>,
    dedup: bool,
    mut replay: impl FnMut(&mut dyn FnMut(u32, C, P)) -> Result<(), E>,
) -> Result<Rows<C, P>, E>
where
    C: Copy + Ord + Default,
    P: Copy + Default,
{
    let (mut offsets, mut cols, mut payload) = scatter_rows(rows, &mut replay)?;
    let mut row: Vec<(C, P)> = Vec::new();
    let (mut read, mut write) = (0, 0);
    for end in &mut offsets[1..] {
        row.clear();
        let span = read..*end as usize;
        row.extend(zip(&cols[span.clone()], &payload[span]).map(|(&c, &p)| (c, p)));
        row.sort_by_key(|&(c, _)| c);
        let start = write;
        for &(c, p) in &row {
            if dedup && write > start && cols[write - 1] == c {
                continue;
            }
            cols[write] = c;
            payload[write] = p;
            write += 1;
        }
        read = *end as usize;
        *end = write as u32;
    }
    // Dedup slack goes back: a resident graph is held at its exact size.
    cols.truncate(write);
    cols.shrink_to_fit();
    payload.truncate(write);
    payload.shrink_to_fit();
    Ok((offsets, cols, payload))
}

/// The count-and-scatter half of [`csr_rows`]: rows in stream order,
/// unsorted.
pub(crate) fn scatter_rows<C: Copy + Default, P: Copy + Default, E>(
    rows: Range<usize>,
    replay: &mut impl FnMut(&mut dyn FnMut(u32, C, P)) -> Result<(), E>,
) -> Result<Rows<C, P>, E> {
    let (lo, len) = (rows.start, rows.len());
    let mut offsets = vec![0u32; len + 1];
    replay(&mut |r, _, _| offsets[r as usize - lo + 1] += 1)?;
    for i in 1..=len {
        offsets[i] += offsets[i - 1];
    }
    let mut cols = vec![C::default(); offsets[len] as usize];
    let mut payload = vec![P::default(); cols.len()];
    // `offsets[i]` is row i's write cursor and ends at row i + 1's start.
    replay(&mut |r, c, p| {
        let slot = &mut offsets[r as usize - lo];
        cols[*slot as usize] = c;
        payload[*slot as usize] = p;
        *slot += 1;
    })?;
    offsets.copy_within(..len, 1);
    offsets[0] = 0;
    Ok((offsets, cols, payload))
}

/// Accumulates an edge list and assembles a [`CsrGraph`].
///
/// A non-consuming builder: configuration methods take `&mut self`, and
/// [`GraphBuilder::build`] takes `&self`, so one edge list can be built
/// under several configurations.
///
/// * `dedup(true)` (default) removes parallel edges, keeping the
///   first-added weight; a mirrored edge counts as added after every
///   original one.
/// * `drop_self_loops(true)` (default) removes `v -> v` edges, which
///   delta-accumulative algorithms treat as no-ops anyway.
/// * `symmetric(true)` inserts the reverse of every edge (social-network
///   style undirected graphs).
/// * `weighted(true)` marks the graph as carrying meaningful weights.
///
/// # Examples
///
/// ```
/// use gp_graph::{GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
/// b.add_edge(VertexId::new(0), VertexId::new(1), 9.0); // duplicate, dropped
/// b.symmetric(true);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2); // 0->1 and 1->0
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: u32,
    edges: Vec<(u32, u32, f32)>,
    dedup: bool,
    drop_self_loops: bool,
    symmetric: bool,
    weighted: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices: u32::try_from(num_vertices).expect("vertex count exceeds u32"),
            edges: Vec::new(),
            dedup: true,
            drop_self_loops: true,
            symmetric: false,
            weighted: false,
        }
    }

    /// Adds a directed edge `src -> dst` with `weight`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, weight: f32) -> &mut Self {
        assert!(
            src.get() < self.num_vertices && dst.get() < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        self.edges.push((src.get(), dst.get(), weight));
        self
    }

    /// Whether to remove parallel edges (default `true`).
    pub fn dedup(&mut self, yes: bool) -> &mut Self {
        self.dedup = yes;
        self
    }

    /// Whether to remove self loops (default `true`).
    pub fn drop_self_loops(&mut self, yes: bool) -> &mut Self {
        self.drop_self_loops = yes;
        self
    }

    /// Whether to mirror every edge (default `false`).
    pub fn symmetric(&mut self, yes: bool) -> &mut Self {
        self.symmetric = yes;
        self
    }

    /// Whether the weights are meaningful (default `false`).
    pub fn weighted(&mut self, yes: bool) -> &mut Self {
        self.weighted = yes;
        self
    }

    /// Sorts, optionally deduplicates and symmetrizes, and assembles the CSR.
    ///
    /// The added edges, then their mirrors, are counting-sorted straight
    /// into the out-arrays (`csr_rows`); the build holds the edge list,
    /// both CSR directions and `n`-length counters, nothing more.
    pub fn build(&self) -> CsrGraph {
        let mirrors = if self.symmetric { &self.edges[..] } else { &[] };
        let Ok((offsets, neighbors, weights)) = csr_rows(
            0..self.num_vertices as usize,
            self.dedup,
            |sink: &mut dyn FnMut(u32, VertexId, f32)| {
                let mirrored = mirrors.iter().map(|&(s, d, w)| (d, s, w));
                for (s, d, w) in self.edges.iter().copied().chain(mirrored) {
                    if !(self.drop_self_loops && s == d) {
                        sink(s, VertexId::new(d), w);
                    }
                }
                Ok::<(), Infallible>(())
            },
        );
        CsrGraph::from_parts(
            self.num_vertices,
            offsets,
            neighbors,
            weights,
            self.weighted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first_sorted_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId::new(0), VertexId::new(1), 5.0);
        b.add_edge(VertexId::new(0), VertexId::new(1), 7.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        let e: Vec<_> = g.out_edges(VertexId::new(0)).collect();
        assert_eq!(e[0].weight, 5.0);
    }

    #[test]
    fn no_dedup_keeps_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        b.dedup(false);
        assert_eq!(b.build().num_edges(), 2);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId::new(0), VertexId::new(0), 1.0);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        assert_eq!(b.build().num_edges(), 1);
        b.drop_self_loops(false);
        assert_eq!(b.build().num_edges(), 2);
    }

    #[test]
    fn symmetric_mirrors_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId::new(0), VertexId::new(2), 4.0);
        b.symmetric(true);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_neighbors(VertexId::new(2)), &[VertexId::new(0)]);
        let back: Vec<_> = g.out_edges(VertexId::new(2)).collect();
        assert_eq!(back[0].weight, 4.0);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut b = GraphBuilder::new(5);
        for d in [4u32, 1, 3, 2] {
            b.add_edge(VertexId::new(0), VertexId::new(d), 1.0);
        }
        let g = b.build();
        let ns: Vec<u32> = g
            .out_neighbors(VertexId::new(0))
            .iter()
            .map(|v| v.get())
            .collect();
        assert_eq!(ns, vec![1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId::new(0), VertexId::new(2), 1.0);
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
    }
}
