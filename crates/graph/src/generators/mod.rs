//! Seeded synthetic graph generators.
//!
//! The paper evaluates on five real-world datasets (Table IV). Offline, we
//! substitute parameterized synthetic graphs whose degree distribution and
//! average degree match each dataset (see `DESIGN.md` §3). All generators are
//! deterministic given a seed.
//!
//! * [`rmat`] — recursive-matrix power-law graphs (Graph500 style), the
//!   default stand-in for web/social graphs,
//! * [`barabasi_albert`] — preferential-attachment scale-free graphs,
//! * [`erdos_renyi`] — uniform random graphs (G(n, m) variant),
//! * [`watts_strogatz`] — Watts–Strogatz ring-rewiring graphs,
//! * [`grid_2d`] — 2-D lattices, a stand-in for road networks.

mod barabasi;
mod erdos_renyi;
mod grid;
mod rmat;
mod small_world;

pub use barabasi::barabasi_albert;
pub use erdos_renyi::{erdos_renyi, erdos_renyi_edges};
pub use grid::grid_2d;
pub use rmat::{rmat, rmat_edges, rmat_scramble, rmat_step, RmatConfig};
pub use small_world::watts_strogatz;

use gp_sim::rng::Rng;

use crate::GraphBuilder;

/// How edge weights are assigned by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightMode {
    /// All weights `1.0`; the graph is marked unweighted.
    #[default]
    Unweighted,
    /// Weights drawn uniformly from `[lo, hi)`; the graph is marked weighted.
    Uniform(f32, f32),
}

impl WeightMode {
    pub(crate) fn sample<R: Rng>(self, rng: &mut R) -> f32 {
        match self {
            WeightMode::Unweighted => 1.0,
            WeightMode::Uniform(lo, hi) => rng.gen_range(lo..hi),
        }
    }

    pub(crate) fn mark(self, builder: &mut GraphBuilder) {
        if let WeightMode::Uniform(..) = self {
            builder.weighted(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_sim::rng::StdRng;

    #[test]
    fn weight_modes_sample_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(WeightMode::Unweighted.sample(&mut rng), 1.0);
        for _ in 0..100 {
            let w = WeightMode::Uniform(2.0, 5.0).sample(&mut rng);
            assert!((2.0..5.0).contains(&w));
        }
    }
}
