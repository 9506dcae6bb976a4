//! Table IV workload profiles.
//!
//! The paper evaluates on five real-world graphs. This module records their
//! published sizes and synthesizes scaled stand-ins with matching average
//! degree and skew (see `DESIGN.md` §3 for the substitution rationale).

use crate::generators::{barabasi_albert, grid_2d, rmat, RmatConfig, WeightMode};
use crate::CsrGraph;

/// The five evaluation datasets of Table IV, plus a road-network profile
/// used by the examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Google Web graph (WG): 0.87 M nodes, 5.10 M edges.
    WebGoogle,
    /// Facebook social network (FB): 3.01 M nodes, 47.33 M edges.
    Facebook,
    /// Wikipedia page links (WK): 3.56 M nodes, 45.03 M edges.
    Wikipedia,
    /// LiveJournal social network (LJ): 4.84 M nodes, 68.99 M edges.
    LiveJournal,
    /// Twitter follower graph (TW): 41.65 M nodes, 1.46 B edges; requires
    /// slicing on the accelerator (§IV-F).
    Twitter,
    /// A 2-D grid road-network stand-in (not in Table IV; used by examples).
    Road,
}

impl Workload {
    /// The five Table IV workloads in paper order.
    pub const TABLE_IV: [Workload; 5] = [
        Workload::WebGoogle,
        Workload::Facebook,
        Workload::Wikipedia,
        Workload::LiveJournal,
        Workload::Twitter,
    ];

    /// Paper abbreviation (WG/FB/WK/LJ/TW).
    pub fn abbrev(self) -> &'static str {
        match self {
            Workload::WebGoogle => "WG",
            Workload::Facebook => "FB",
            Workload::Wikipedia => "WK",
            Workload::LiveJournal => "LJ",
            Workload::Twitter => "TW",
            Workload::Road => "RD",
        }
    }

    /// Parses a paper abbreviation ([`abbrev`](Workload::abbrev)),
    /// ignoring case.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::TABLE_IV
            .into_iter()
            .chain([Workload::Road])
            .find(|w| w.abbrev().eq_ignore_ascii_case(s))
    }

    /// Human-readable name as in Table IV.
    pub fn description(self) -> &'static str {
        match self {
            Workload::WebGoogle => "Google Web Graph",
            Workload::Facebook => "Facebook Social Net.",
            Workload::Wikipedia => "Wikipedia Page Links",
            Workload::LiveJournal => "LiveJournal Social Net.",
            Workload::Twitter => "Twitter Follower Graph",
            Workload::Road => "Synthetic Road Grid",
        }
    }

    /// Published full-scale vertex count.
    pub fn full_vertices(self) -> usize {
        match self {
            Workload::WebGoogle => 870_000,
            Workload::Facebook => 3_010_000,
            Workload::Wikipedia => 3_560_000,
            Workload::LiveJournal => 4_840_000,
            Workload::Twitter => 41_650_000,
            Workload::Road => 1_000_000,
        }
    }

    /// Published full-scale edge count.
    pub fn full_edges(self) -> usize {
        match self {
            Workload::WebGoogle => 5_100_000,
            Workload::Facebook => 47_330_000,
            Workload::Wikipedia => 45_030_000,
            Workload::LiveJournal => 68_990_000,
            Workload::Twitter => 1_460_000_000,
            Workload::Road => 2_000_000,
        }
    }

    /// Synthesizes the workload at `1/scale_denominator` of the published
    /// vertex count, preserving the average degree and skew class.
    ///
    /// * WG, WK, LJ, TW → R-MAT (directed power-law: web/social link graphs),
    /// * FB → Barabási–Albert (symmetric friendship graph),
    /// * Road → 2-D weighted grid.
    ///
    /// Deterministic for a given `(workload, scale, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `scale_denominator` is zero.
    pub fn synthesize(self, scale_denominator: usize, seed: u64) -> CsrGraph {
        self.synthesize_weighted(scale_denominator, WeightMode::Unweighted, seed)
    }

    /// Like [`Workload::synthesize`] but with explicit weight assignment
    /// (SSSP and Adsorption need weighted edges).
    pub fn synthesize_weighted(
        self,
        scale_denominator: usize,
        weights: WeightMode,
        seed: u64,
    ) -> CsrGraph {
        assert!(scale_denominator > 0, "scale denominator must be nonzero");
        let n = (self.full_vertices() / scale_denominator).max(64);
        let m = (self.full_edges() / scale_denominator).max(256);
        match self {
            Workload::Facebook => {
                let per_vertex = ((m / n) / 2).max(1); // BA inserts both directions
                barabasi_albert(n, per_vertex, weights, seed)
            }
            Workload::Road => {
                let side = (n as f64).sqrt().ceil() as usize;
                grid_2d(side, side, weights, seed)
            }
            _ => {
                // Edge-placement attempts are inflated to compensate for
                // dedup losses in skewed R-MAT.
                let attempts = m + m / 3;
                let cfg = RmatConfig::graph500(n, attempts).with_weights(weights);
                rmat(&cfg, seed)
            }
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_sizes_match_paper() {
        assert_eq!(Workload::WebGoogle.full_vertices(), 870_000);
        assert_eq!(Workload::Twitter.full_edges(), 1_460_000_000);
        let lj = Workload::LiveJournal;
        assert!((lj.full_edges() as f64 / lj.full_vertices() as f64 - 14.25).abs() < 0.1);
    }

    #[test]
    fn synthesized_scale_tracks_denominator() {
        let g = Workload::WebGoogle.synthesize(128, 1);
        let expect_n = 870_000 / 128;
        assert_eq!(g.num_vertices(), expect_n);
        // Average degree within 2x band of the real dataset (dedup losses).
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        let full = Workload::WebGoogle.full_edges() as f64 / 870_000.0;
        assert!(avg > full / 2.0 && avg < full * 2.0);
    }

    #[test]
    fn facebook_is_symmetric() {
        let g = Workload::Facebook.synthesize(4096, 2);
        for v in g.vertices().take(50) {
            for n in g.out_neighbors(v) {
                assert!(g.out_neighbors(*n).contains(&v));
            }
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(
            Workload::Wikipedia.synthesize(2048, 3),
            Workload::Wikipedia.synthesize(2048, 3)
        );
    }

    #[test]
    fn abbrevs_are_distinct() {
        let mut seen: Vec<&str> = Workload::TABLE_IV.iter().map(|w| w.abbrev()).collect();
        seen.dedup();
        assert_eq!(seen.len(), 5);
    }
}
