//! Compressed Sparse Row graph storage.

use std::convert::Infallible;
use std::fmt;

use crate::builder::scatter_rows;
use crate::VertexId;

/// A directed graph in Compressed Sparse Row form, with both out- and
/// in-adjacency and optional `f32` edge weights.
///
/// This is the memory layout the accelerator streams (§IV-E of the paper:
/// "The graph is stored in a Compressed Sparse Row format in memory"): a
/// per-vertex offset array into a flat neighbor array, with a parallel
/// weight array when the algorithm needs weights (SSSP, Adsorption).
///
/// The in-adjacency mirror is built eagerly; the pull-direction software
/// baseline (Ligra-style `edge_map` in dense mode) requires it, and keeping
/// both directions matches what graph frameworks load in practice.
///
/// Construct via [`GraphBuilder`](crate::GraphBuilder) or the
/// [`generators`](crate::generators).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    num_vertices: u32,
    /// `out_offsets[v]..out_offsets[v+1]` indexes `out_neighbors`/`weights`.
    out_offsets: Vec<u32>,
    out_neighbors: Vec<VertexId>,
    /// Same length as `out_neighbors`; all `1.0` for unweighted graphs.
    out_weights: Vec<f32>,
    in_offsets: Vec<u32>,
    in_neighbors: Vec<VertexId>,
    in_weights: Vec<f32>,
    weighted: bool,
}

/// One edge observed while iterating adjacency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// The vertex on the far end of the edge.
    pub other: VertexId,
    /// Edge weight (`1.0` on unweighted graphs).
    pub weight: f32,
}

impl CsrGraph {
    /// Assembles a graph from raw CSR arrays; used by the builder.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the offset arrays are malformed.
    pub(crate) fn from_parts(
        num_vertices: u32,
        out_offsets: Vec<u32>,
        out_neighbors: Vec<VertexId>,
        out_weights: Vec<f32>,
        weighted: bool,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), num_vertices as usize + 1);
        debug_assert_eq!(*out_offsets.last().unwrap() as usize, out_neighbors.len());
        debug_assert_eq!(out_neighbors.len(), out_weights.len());

        // The in-CSR mirror: the out-rows counting-sorted by destination,
        // so each in-row lists its sources ascending.
        let n = num_vertices as usize;
        let Ok((in_offsets, in_neighbors, in_weights)) = scatter_rows(0..n, &mut |sink| {
            for (src, run) in out_offsets.windows(2).enumerate() {
                for e in run[0] as usize..run[1] as usize {
                    sink(
                        out_neighbors[e].get(),
                        VertexId::from_index(src),
                        out_weights[e],
                    );
                }
            }
            Ok::<(), Infallible>(())
        });

        CsrGraph {
            num_vertices,
            out_offsets,
            out_neighbors,
            out_weights,
            in_offsets,
            in_neighbors,
            in_weights,
            weighted,
        }
    }

    /// Assembles a graph from both directions' `(offsets, neighbors,
    /// weights)` arrays, already in the canonical order [`from_parts`]
    /// produces; used by overlay compaction.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the arrays break
    /// [`CsrGraph::check_invariants`].
    ///
    /// [`from_parts`]: CsrGraph::from_parts
    pub(crate) fn from_canonical_parts(
        (out_offsets, out_neighbors, out_weights): (Vec<u32>, Vec<VertexId>, Vec<f32>),
        (in_offsets, in_neighbors, in_weights): (Vec<u32>, Vec<VertexId>, Vec<f32>),
        weighted: bool,
    ) -> Self {
        let g = CsrGraph {
            num_vertices: u32::try_from(out_offsets.len() - 1).expect("vertex count exceeds u32"),
            out_offsets,
            out_neighbors,
            out_weights,
            in_offsets,
            in_neighbors,
            in_weights,
            weighted,
        };
        debug_assert_eq!(g.check_invariants(), Ok(()));
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices as usize
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_neighbors.len()
    }

    /// Whether the graph carries meaningful edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices).map(VertexId::new)
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]
    }

    /// In-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> u32 {
        self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]
    }

    /// Out-neighbors of `v` as a slice.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_neighbors[lo..hi]
    }

    /// In-neighbors of `v` as a slice.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_neighbors[lo..hi]
    }

    /// Out-edges of `v` with weights.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> OutEdges<'_> {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        OutEdges::csr(&self.out_neighbors[lo..hi], &self.out_weights[lo..hi])
    }

    /// In-edges of `v` with weights.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> OutEdges<'_> {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        OutEdges::csr(&self.in_neighbors[lo..hi], &self.in_weights[lo..hi])
    }

    /// Global flat index of the first out-edge of `v`.
    ///
    /// The accelerator's memory model uses this to compute the DRAM address
    /// of a vertex's edge list.
    #[inline]
    pub fn out_edge_base(&self, v: VertexId) -> usize {
        self.out_offsets[v.index()] as usize
    }

    /// Raw out-CSR arrays `(offsets, neighbors, weights)`; the on-disk
    /// container serializes these segments verbatim.
    pub(crate) fn out_parts(&self) -> (&[u32], &[VertexId], &[f32]) {
        (&self.out_offsets, &self.out_neighbors, &self.out_weights)
    }

    /// Raw in-CSR arrays `(offsets, neighbors, weights)`.
    pub(crate) fn in_parts(&self) -> (&[u32], &[VertexId], &[f32]) {
        (&self.in_offsets, &self.in_neighbors, &self.in_weights)
    }

    /// Validates structural invariants; exercised by tests and `proptest`.
    ///
    /// Checks: offsets are monotone and bounded, in/out edge counts agree,
    /// every neighbor id is in range, weights arrays are aligned, every
    /// out- and in-row is non-decreasing by neighbor id, and the
    /// in-adjacency is the transpose of the out-adjacency, weights
    /// included, with each in-row ordered by source as the out-rows are
    /// walked. Overlay compaction relies on the last two.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.num_vertices as usize;
        if self.out_offsets.len() != n + 1 || self.in_offsets.len() != n + 1 {
            return Err("offset array length mismatch".into());
        }
        for w in self
            .out_offsets
            .windows(2)
            .chain(self.in_offsets.windows(2))
        {
            if w[0] > w[1] {
                return Err("offsets not monotone".into());
            }
        }
        if *self.out_offsets.last().unwrap() as usize != self.out_neighbors.len() {
            return Err("out offset tail mismatch".into());
        }
        if *self.in_offsets.last().unwrap() as usize != self.in_neighbors.len() {
            return Err("in offset tail mismatch".into());
        }
        if self.out_neighbors.len() != self.in_neighbors.len() {
            return Err("in/out edge count mismatch".into());
        }
        if self.out_neighbors.len() != self.out_weights.len()
            || self.in_neighbors.len() != self.in_weights.len()
        {
            return Err("weight array mismatch".into());
        }
        if self
            .out_neighbors
            .iter()
            .chain(self.in_neighbors.iter())
            .any(|v| v.index() >= n)
        {
            return Err("neighbor id out of range".into());
        }
        for (offsets, neighbors) in [
            (&self.out_offsets, &self.out_neighbors),
            (&self.in_offsets, &self.in_neighbors),
        ] {
            if offsets
                .windows(2)
                .any(|w| !neighbors[w[0] as usize..w[1] as usize].is_sorted())
            {
                return Err("row not sorted by neighbor id".into());
            }
        }
        // Walking the out-rows in source order must consume every in-row
        // front to back: one cursor per destination, one compare per edge.
        let mut cursor = self.in_offsets[..n].to_vec();
        for src in 0..n {
            let lo = self.out_offsets[src] as usize;
            let hi = self.out_offsets[src + 1] as usize;
            for e in lo..hi {
                let dst = self.out_neighbors[e].index();
                let slot = cursor[dst] as usize;
                let mirrored = slot < self.in_offsets[dst + 1] as usize
                    && self.in_neighbors[slot].index() == src
                    && self.in_weights[slot].to_bits() == self.out_weights[e].to_bits();
                if !mirrored {
                    return Err("in-adjacency is not the transpose of out-adjacency".into());
                }
                cursor[dst] += 1;
            }
        }
        Ok(())
    }

    /// The isomorphic graph in which vertex `v` is renamed `perm[v]`.
    ///
    /// `perm` must be a bijection of `0..num_vertices()`. Every edge is
    /// kept, self loops and parallel edges included, and
    /// [`GraphBuilder`](crate::GraphBuilder) canonicalizes adjacency order,
    /// so relabeling and then inverting the relabeling reproduces the
    /// original graph exactly; verification harnesses use this for
    /// metamorphic label-invariance checks, and a container holds its
    /// graph relabeled hub-first.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vertices()`.
    pub fn relabel(&self, perm: &[u32]) -> CsrGraph {
        let n = self.num_vertices();
        assert_eq!(perm.len(), n, "permutation length must match vertex count");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(
                (p as usize) < n && !seen[p as usize],
                "perm must be a bijection of 0..{n}"
            );
            seen[p as usize] = true;
        }
        let mut b = crate::GraphBuilder::new(n);
        b.weighted(self.weighted)
            .dedup(false)
            .drop_self_loops(false);
        for v in self.vertices() {
            for e in self.out_edges(v) {
                b.add_edge(
                    VertexId::new(perm[v.index()]),
                    VertexId::new(perm[e.other.index()]),
                    e.weight,
                );
            }
        }
        b.build()
    }
}

impl fmt::Display for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrGraph({} vertices, {} edges, {})",
            self.num_vertices(),
            self.num_edges(),
            if self.weighted {
                "weighted"
            } else {
                "unweighted"
            }
        )
    }
}

/// One vertex's (out- or in-) edge list: the unit in which every
/// [`GraphView`](crate::GraphView) hands out adjacency.
///
/// A row is resolved once — row pointers decoded, patch table consulted —
/// and then streamed, which is how the accelerator's generation units walk
/// an edge list. It iterates in adjacency order and [`OutEdges::get`]
/// reaches any remaining edge in constant time, over each storage a view
/// can sit on: resident CSR slices, an overlay's patched list, or a window
/// of a mapped container's little-endian segments.
#[derive(Debug, Clone)]
pub struct OutEdges<'a> {
    row: Row<'a>,
    pos: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum Row<'a> {
    Csr {
        neighbors: &'a [VertexId],
        weights: &'a [f32],
    },
    Patch(&'a [(u32, f32)]),
    /// Four bytes per edge in each window; no weight window on an
    /// unweighted container (every weight reads `1.0`).
    Mapped {
        neighbors: &'a [u8],
        weights: Option<&'a [u8]>,
    },
}

/// Little-endian `u32` at element `index` of a 4-byte-record byte window.
#[inline]
pub(crate) fn u32_at(seg: &[u8], index: usize) -> u32 {
    let at = index * 4;
    le_u32(&seg[at..at + 4])
}

/// Little-endian `u32` of a 4-byte record.
#[inline]
fn le_u32(record: &[u8]) -> u32 {
    u32::from_le_bytes([record[0], record[1], record[2], record[3]])
}

impl<'a> OutEdges<'a> {
    fn csr(neighbors: &'a [VertexId], weights: &'a [f32]) -> Self {
        debug_assert_eq!(neighbors.len(), weights.len());
        OutEdges {
            row: Row::Csr { neighbors, weights },
            pos: 0,
            len: neighbors.len(),
        }
    }

    /// A row over an overlay's patched `(neighbor, weight)` list.
    pub(crate) fn patch(edges: &'a [(u32, f32)]) -> Self {
        OutEdges {
            row: Row::Patch(edges),
            pos: 0,
            len: edges.len(),
        }
    }

    /// A row over windows of a mapped container's neighbor and weight
    /// segments (little-endian, four bytes per edge).
    pub(crate) fn mapped(neighbors: &'a [u8], weights: Option<&'a [u8]>) -> Self {
        debug_assert!(weights.is_none_or(|w| w.len() == neighbors.len()));
        OutEdges {
            row: Row::Mapped { neighbors, weights },
            pos: 0,
            len: neighbors.len() / 4,
        }
    }

    /// The `i`-th remaining edge, without advancing; `None` past the end.
    /// Constant time — the cycle model's generation streams read one edge
    /// of a row per simulated cycle through this.
    #[inline]
    pub fn get(&self, i: usize) -> Option<EdgeRef> {
        let at = self.pos + i;
        if at >= self.len {
            return None;
        }
        Some(match self.row {
            Row::Csr { neighbors, weights } => EdgeRef {
                other: neighbors[at],
                weight: weights[at],
            },
            Row::Patch(edges) => EdgeRef {
                other: VertexId::new(edges[at].0),
                weight: edges[at].1,
            },
            Row::Mapped { neighbors, weights } => EdgeRef {
                other: VertexId::new(u32_at(neighbors, at)),
                weight: weights.map_or(1.0, |w| f32::from_bits(u32_at(w, at))),
            },
        })
    }
}

impl Iterator for OutEdges<'_> {
    type Item = EdgeRef;

    #[inline]
    fn next(&mut self) -> Option<EdgeRef> {
        let e = self.get(0)?;
        self.pos += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.pos;
        (rem, Some(rem))
    }

    /// Walks what is left of the row in one loop: the storage is matched
    /// once per row, not once per edge as through [`next`](Self::next).
    /// `for_each` runs through here, so a row walk without an early exit
    /// is `row.for_each(..)`. Same edges, same order as `next`.
    #[inline]
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, EdgeRef) -> B,
    {
        let (pos, len) = (self.pos, self.len);
        match self.row {
            Row::Csr { neighbors, weights } => neighbors[pos..len]
                .iter()
                .zip(&weights[pos..len])
                .fold(init, |acc, (&other, &weight)| {
                    f(acc, EdgeRef { other, weight })
                }),
            Row::Patch(edges) => edges[pos..len].iter().fold(init, |acc, &(other, weight)| {
                let other = VertexId::new(other);
                f(acc, EdgeRef { other, weight })
            }),
            Row::Mapped {
                neighbors,
                weights: None,
            } => neighbors[pos * 4..len * 4]
                .chunks_exact(4)
                .fold(init, |acc, other| {
                    let other = VertexId::new(le_u32(other));
                    f(acc, EdgeRef { other, weight: 1.0 })
                }),
            Row::Mapped {
                neighbors,
                weights: Some(weights),
            } => neighbors[pos * 4..len * 4]
                .chunks_exact(4)
                .zip(weights[pos * 4..len * 4].chunks_exact(4))
                .fold(init, |acc, (other, weight)| {
                    let other = VertexId::new(le_u32(other));
                    let weight = f32::from_bits(le_u32(weight));
                    f(acc, EdgeRef { other, weight })
                }),
        }
    }
}

impl ExactSizeIterator for OutEdges<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId::new(0), VertexId::new(1), 1.0);
        b.add_edge(VertexId::new(0), VertexId::new(2), 2.0);
        b.add_edge(VertexId::new(1), VertexId::new(3), 3.0);
        b.add_edge(VertexId::new(2), VertexId::new(3), 4.0);
        b.weighted(true);
        b.build()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(VertexId::new(0)), 2);
        assert_eq!(g.in_degree(VertexId::new(3)), 2);
        assert_eq!(
            g.out_neighbors(VertexId::new(0)),
            &[VertexId::new(1), VertexId::new(2)]
        );
        assert_eq!(
            g.in_neighbors(VertexId::new(3)),
            &[VertexId::new(1), VertexId::new(2)]
        );
    }

    #[test]
    fn in_edges_carry_matching_weights() {
        let g = diamond();
        let in3: Vec<_> = g.in_edges(VertexId::new(3)).collect();
        assert_eq!(in3.len(), 2);
        let w1 = in3.iter().find(|e| e.other == VertexId::new(1)).unwrap();
        assert_eq!(w1.weight, 3.0);
        let w2 = in3.iter().find(|e| e.other == VertexId::new(2)).unwrap();
        assert_eq!(w2.weight, 4.0);
    }

    #[test]
    fn invariants_hold() {
        diamond().check_invariants().unwrap();
    }

    #[test]
    fn invariants_catch_an_unsorted_row() {
        // Vertex 0's row read backwards: still the transpose, not sorted.
        let mut g = diamond();
        g.out_neighbors.swap(0, 1);
        g.out_weights.swap(0, 1);
        assert_eq!(
            g.check_invariants(),
            Err("row not sorted by neighbor id".into())
        );
        let mut g = diamond();
        g.in_neighbors.swap(2, 3);
        g.in_weights.swap(2, 3);
        assert_eq!(
            g.check_invariants(),
            Err("row not sorted by neighbor id".into())
        );
    }

    #[test]
    fn invariants_catch_an_in_csr_that_is_not_the_transpose() {
        let broken = Err("in-adjacency is not the transpose of out-adjacency".into());
        // A weight that disagrees with its out-edge.
        let mut g = diamond();
        g.in_weights[3] = 9.0;
        assert_eq!(g.check_invariants(), broken);
        // 1 -> 3 mirrored as 0 -> 3: sorted, in range, right counts.
        let mut g = diamond();
        g.in_neighbors[2] = VertexId::new(0);
        assert_eq!(g.check_invariants(), broken);
        // In-degrees moved: 3's in-row lends an edge to 2's.
        let mut g = diamond();
        g.in_offsets[3] += 1;
        assert_eq!(g.check_invariants(), broken);
    }

    #[test]
    fn out_edges_iterator_is_exact_size() {
        let g = diamond();
        let it = g.out_edges(VertexId::new(0));
        assert_eq!(it.len(), 2);
        let edges: Vec<_> = it.collect();
        assert_eq!(edges[0].other, VertexId::new(1));
        assert_eq!(edges[0].weight, 1.0);
    }

    #[test]
    fn display_mentions_counts() {
        let s = diamond().to_string();
        assert!(s.contains("4 vertices"));
        assert!(s.contains("4 edges"));
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = diamond();
        let perm = [2u32, 0, 3, 1]; // old -> new
        let r = g.relabel(&perm);
        r.check_invariants().unwrap();
        assert_eq!(r.num_vertices(), 4);
        assert_eq!(r.num_edges(), 4);
        assert!(r.is_weighted());
        // Edge (0 -> 1, w=1.0) becomes (2 -> 0, w=1.0).
        let e: Vec<_> = r.out_edges(VertexId::new(2)).collect();
        assert!(e
            .iter()
            .any(|e| e.other == VertexId::new(0) && e.weight == 1.0));
        // Round trip through the inverse permutation is the identity.
        let mut inv = [0u32; 4];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        assert_eq!(r.relabel(&inv), g);
    }

    #[test]
    fn relabel_keeps_self_loops_and_parallel_edges() {
        for n in [0usize, 1, 64, 65] {
            let mut b = crate::GraphBuilder::new(n);
            b.weighted(true).dedup(false).drop_self_loops(false);
            if n > 0 {
                let (a, z) = (VertexId::new(0), VertexId::new(n as u32 - 1));
                b.add_edge(z, z, 1.5) // a self loop
                    .add_edge(a, z, 2.0) // a parallel pair, weights apart
                    .add_edge(a, z, 3.0)
                    .add_edge(z, a, 4.0);
            }
            let g = b.build();
            let perm: Vec<u32> = (0..n as u32).rev().collect();
            let r = g.relabel(&perm);
            r.check_invariants().unwrap();
            assert_eq!(r.num_edges(), g.num_edges(), "n {n}");
            // The reversal is its own inverse.
            assert_eq!(r.relabel(&perm), g, "n {n}");
        }
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn relabel_rejects_non_bijections() {
        diamond().relabel(&[0, 0, 1, 2]);
    }
}
