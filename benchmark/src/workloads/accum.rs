//! `accum-r16`: one pass = `run_turbo` then `run_sequential` of
//! PageRank-delta on a resident graph. Millions of coalesces into a few
//! hundred thousand processed events: turbo's wheel, reschedule churn and
//! coalesce read-modify-write do most of the work.

use gp_graph::CsrGraph;

use super::{graph_layers, pagerank, resident_rmat, solve_layers, Solve, PRD};
use crate::harness::{Layers, Params, Pass, Workload};
use crate::trace::Tracer;

pub struct Accum {
    graph: CsrGraph,
    solve: Option<Solve>,
}

impl Workload for Accum {
    fn setup(p: &Params, tr: &mut Tracer) -> Accum {
        Accum {
            graph: resident_rmat(p.log2(16), p.seed, tr),
            solve: None,
        }
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let solve = Solve::run(&PRD, &pagerank(), &self.graph, tr);
        let prints = solve.prints().to_vec();
        self.solve = Some(solve);
        Pass {
            attempted: 2,
            failed: 0,
            prints,
        }
    }

    fn verify(&mut self) -> u64 {
        u64::from(!self.solve.as_ref().expect("a pass ran").agrees())
    }

    fn layers(&self, tr: &Tracer, _passes: usize, out: &mut Layers) {
        graph_layers(tr, out);
        solve_layers(&PRD, self.solve.as_slice(), tr, out);
    }
}
