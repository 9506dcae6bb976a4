//! The dense coalescing column: GraphPulse's direct-mapped event queue
//! (§IV) reduced to its semantic core.
//!
//! One pending delta per vertex in `pending`, marked by one bit per vertex
//! in `active`. A deposit coalesces into the pending slot when the bit is
//! set and otherwise stores the delta and sets it; a sweep walks the
//! bitmap word by word, set bits in ascending order, clearing each as it
//! takes it. Vertex order is the bit position, so nothing is sorted and
//! nothing is filed twice.
//!
//! Two uses share it. The turbo backend's rounds are sweeps over one
//! (`gp_turbo::run_turbo_with`), and
//! [`incremental_seeds_with`](crate::incremental::incremental_seeds_with)
//! coalesces a batch's correction events in one and drains it into a
//! [`SeedPlan`](crate::SeedPlan). A sweep clears every bit it takes, so a
//! drained pool is empty again and the next run or batch reuses it without
//! touching the `n`-length column: a resident pool costs what each use
//! touches, and an owner that seeds and then runs keeps one pool for both.

use std::fmt;

use crate::DeltaAlgorithm;

/// A dense pending-delta column over `n` vertices with an occupancy
/// bitmap, and counters of the deposits it took.
pub struct DeltaPool<A: DeltaAlgorithm> {
    /// Pending delta per vertex; meaningful only where `active` is set.
    pending: Vec<A::Delta>,
    /// One bit per vertex, 64 to a word.
    active: Vec<u64>,
    /// Deposits taken, and how many of them coalesced.
    generated: u64,
    coalesced: u64,
}

impl<A: DeltaAlgorithm> DeltaPool<A> {
    /// An empty pool over `n` vertices.
    pub fn new(algo: &A, n: usize) -> Self {
        DeltaPool {
            pending: vec![algo.identity_delta(); n],
            active: vec![0; n.div_ceil(64)],
            generated: 0,
            coalesced: 0,
        }
    }

    /// The vertex count the pool was built for.
    pub fn num_vertices(&self) -> usize {
        self.pending.len()
    }

    /// Whether any vertex holds a pending delta.
    pub fn has_active(&self) -> bool {
        self.active.iter().any(|&word| word != 0)
    }

    /// Deposits `delta` for `target`: coalesces into the pending slot if
    /// the vertex is already active, otherwise stores the delta and
    /// activates it.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    #[inline]
    pub fn deposit(&mut self, algo: &A, target: u32, delta: A::Delta) {
        self.generated += 1;
        let t = target as usize;
        let bit = 1u64 << (t % 64);
        if self.active[t / 64] & bit != 0 {
            self.coalesced += 1;
            self.pending[t] = algo.coalesce(self.pending[t], delta);
        } else {
            self.pending[t] = delta;
            self.active[t / 64] |= bit;
        }
    }

    /// One sweep: walks the bitmap word by word, set bits in ascending
    /// order, clears each bit and hands `visit` the vertex and its pending
    /// delta, together with the pool. A delta `visit` deposits for a vertex
    /// ahead of the sweep — higher bits of the word being walked included;
    /// the live word is re-read after every vertex — is taken later in
    /// this same sweep; one at or behind it stays pending for the next.
    /// The visited vertex's bit is already clear, so its own deposit is
    /// stored, not coalesced into the delta being handed out. Returns the
    /// vertices visited.
    #[inline]
    pub fn sweep(&mut self, mut visit: impl FnMut(&mut Self, usize, A::Delta)) -> u64 {
        let mut visited = 0u64;
        for w in 0..self.active.len() {
            let mut ahead = !0u64;
            loop {
                let bits = self.active[w] & ahead;
                if bits == 0 {
                    break;
                }
                let b = bits.trailing_zeros();
                ahead = !1u64 << b;
                self.active[w] &= !(1u64 << b);
                let v = w * 64 + b as usize;
                visited += 1;
                let delta = self.pending[v];
                visit(self, v, delta);
            }
        }
        visited
    }

    /// Returns `(generated, coalesced)` — the deposits taken since the last
    /// call, and how many of them coalesced — and zeroes both.
    pub fn take_counts(&mut self) -> (u64, u64) {
        let counts = (self.generated, self.coalesced);
        self.generated = 0;
        self.coalesced = 0;
        counts
    }

    /// Clears the `pick`-th set bit in vertex order (modulo the number set),
    /// losing its pending delta: the turbo backend's injected SRAM upset.
    /// Does nothing when no bit is set.
    pub fn clear_nth_active(&mut self, pick: u64) {
        let set: u64 = self.active.iter().map(|w| u64::from(w.count_ones())).sum();
        if set == 0 {
            return;
        }
        let mut kth = pick % set;
        for word in &mut self.active {
            let ones = u64::from(word.count_ones());
            if kth < ones {
                let below = (0..kth).fold(*word, |bits, _| bits & (bits - 1));
                *word &= !(1 << below.trailing_zeros());
                return;
            }
            kth -= ones;
        }
    }
}

impl<A: DeltaAlgorithm> fmt::Debug for DeltaPool<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let active: u32 = self.active.iter().map(|w| w.count_ones()).sum();
        f.debug_struct("DeltaPool")
            .field("vertices", &self.num_vertices())
            .field("active", &active)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sssp;
    use gp_graph::VertexId;

    fn drain(pool: &mut DeltaPool<Sssp>) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        pool.sweep(|_, v, d| out.push((v, d)));
        out
    }

    /// Vertex `n - 1` is the last bit of a word at n = 64, the first of a
    /// second word at n = 65, and alone at n = 1.
    #[test]
    fn drain_is_ascending_coalesced_and_leaves_the_pool_empty() {
        let algo = Sssp::new(VertexId::new(0));
        for n in [1usize, 63, 64, 65, 200] {
            let mut pool = DeltaPool::new(&algo, n);
            let last = (n - 1) as u32;
            for (v, d) in [(last, 4.0), (0, 7.0), (last, 2.0), (0, 9.0)] {
                pool.deposit(&algo, v, d);
            }
            let want = if n == 1 {
                vec![(0, 2.0)]
            } else {
                vec![(0, 7.0), (n - 1, 2.0)]
            };
            assert_eq!(drain(&mut pool), want, "n = {n}");
            assert!(!pool.has_active(), "n = {n}");
            assert_eq!(pool.take_counts(), (4, 4 - want.len() as u64));
            assert_eq!(pool.take_counts(), (0, 0));
            // Reuse stores, never coalesces into, what the drain took.
            pool.deposit(&algo, last, 5.0);
            assert_eq!(drain(&mut pool), [(n - 1, 5.0)], "n = {n}");
        }
    }

    #[test]
    fn a_deposit_ahead_of_the_sweep_is_taken_in_the_same_sweep() {
        let algo = Sssp::new(VertexId::new(0));
        let mut pool = DeltaPool::new(&algo, 130);
        pool.deposit(&algo, 3, 1.0);
        let mut order = Vec::new();
        let visited = pool.sweep(|pool, v, _| {
            order.push(v);
            // Forward hops across a word boundary, one self-loop at the end.
            let next = match v {
                3 => 70,
                70 => 129,
                _ => v as u32,
            };
            pool.deposit(&algo, next, 0.0);
        });
        assert_eq!((visited, order), (3, vec![3, 70, 129]));
        assert_eq!(drain(&mut pool), [(129, 0.0)]);
    }

    #[test]
    fn clear_nth_active_drops_one_vertex_in_vertex_order() {
        let algo = Sssp::new(VertexId::new(0));
        let mut pool = DeltaPool::new(&algo, 100);
        for v in [90, 5, 64] {
            pool.deposit(&algo, v, 1.0);
        }
        pool.clear_nth_active(4); // 4 % 3 = the second: vertex 64
        assert_eq!(drain(&mut pool), [(5, 1.0), (90, 1.0)]);
        pool.clear_nth_active(0);
        assert!(!pool.has_active());
    }
}
