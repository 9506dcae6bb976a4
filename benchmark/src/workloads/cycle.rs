//! `cycle-r12`: one pass = the cycle-level accelerator model running
//! PageRank-delta and SSSP. Only `graphpulse-core`, `gp-sim` and `gp-mem`
//! work; turbo, serve and the containers are bypassed. Simulated cycles
//! must repeat exactly, whatever the host speed.

use gp_algorithms::Sssp;
use gp_graph::{CsrGraph, VertexId};
use graphpulse_core::{AcceleratorConfig, GraphPulse, Outcome};

use super::{checksum, fingerprint, graph_layers, hubs, matches_golden, pagerank, resident_rmat};
use crate::harness::{Layers, Params, Pass, Workload};
use crate::stats::median;
use crate::trace::Tracer;

const PRD_SPAN: &str = "GraphPulse::run:prd";
const SSSP_SPAN: &str = "GraphPulse::run:sssp";

pub struct Cycle {
    graph: CsrGraph,
    root: VertexId,
    accel: GraphPulse,
    /// PageRank-delta's and SSSP's outcome of the last pass.
    last: Option<[Outcome; 2]>,
}

fn print_of(o: &Outcome) -> u64 {
    let r = &o.report;
    fingerprint([
        r.cycles,
        r.rounds,
        r.events_processed,
        r.events_generated,
        r.events_coalesced,
        r.memory.total_bytes(),
        checksum(&o.values),
    ])
}

impl Workload for Cycle {
    fn setup(p: &Params, tr: &mut Tracer) -> Cycle {
        let graph = resident_rmat(p.log2(12), p.seed, tr);
        Cycle {
            root: hubs(&graph, 1)[0],
            graph,
            accel: GraphPulse::new(AcceleratorConfig::optimized()),
            last: None,
        }
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let (accel, graph) = (&self.accel, &self.graph);
        let prd = tr.span(PRD_SPAN, |_| accel.run(graph, &pagerank()));
        let sssp = tr.span(SSSP_SPAN, |_| accel.run(graph, &Sssp::new(self.root)));
        let mut pass = Pass {
            attempted: 2,
            ..Pass::default()
        };
        match (prd, sssp) {
            (Ok(prd), Ok(sssp)) => {
                pass.prints = vec![print_of(&prd), print_of(&sssp)];
                self.last = Some([prd, sssp]);
            }
            (prd, sssp) => pass.failed = u64::from(prd.is_err()) + u64::from(sssp.is_err()),
        }
        pass
    }

    fn verify(&mut self) -> u64 {
        let Some([prd, sssp]) = &self.last else {
            return 2;
        };
        u64::from(!matches_golden(&pagerank(), &self.graph, &prd.values))
            + u64::from(!matches_golden(
                &Sssp::new(self.root),
                &self.graph,
                &sssp.values,
            ))
    }

    fn layers(&self, tr: &Tracer, _passes: usize, out: &mut Layers) {
        graph_layers(tr, out);
        let [prd, sssp] = self.last.as_ref().expect("a pass ran");
        let mut host_s = 0.0;
        for (key, span, o) in [("prd", PRD_SPAN, prd), ("sssp", SSSP_SPAN, sssp)] {
            let s = median(&tr.seconds(span, true));
            host_s += s;
            out.set(format!("core.{key}_host_s"), s);
            out.set(format!("core.{key}_sim_cycles"), o.report.cycles as f64);
            out.set(
                format!("core.{key}_events_processed"),
                o.report.events_processed as f64,
            );
            out.set(
                format!("core.{key}_events_coalesced"),
                o.report.events_coalesced as f64,
            );
            out.set(format!("core.{key}_rounds"), o.report.rounds as f64);
        }
        let cycles = (prd.report.cycles + sssp.report.cycles) as f64;
        out.set("core.host_ns_per_sim_cycle", host_s * 1e9 / cycles);

        // The unprefixed simulated statistics are the PageRank-delta run's,
        // the longer of the two.
        let r = &prd.report;
        out.set("core.slices", r.slices as f64);
        let busy = |rows: Vec<(&str, u64, f64)>| rows.iter().take(2).map(|row| row.2).sum::<f64>();
        out.set("core.proc_busy_frac", busy(r.proc_timeline.fractions()));
        out.set("core.gen_busy_frac", busy(r.gen_timeline.fractions()));
        out.set("core.stage_vtx_mem", r.stages.vtx_mem.mean());
        out.set("core.stage_process", r.stages.process.mean());
        out.set("core.stage_gen_buffer", r.stages.gen_buffer.mean());
        out.set("core.stage_edge_mem", r.stages.edge_mem.mean());
        out.set("core.stage_generate", r.stages.generate.mean());
        out.set("mem.offchip_bytes", r.memory.total_bytes() as f64);
        out.set("mem.offchip_accesses", r.memory.total_accesses() as f64);
        out.set("mem.byte_utilization", r.memory.utilization());
        let lookups = (r.edge_cache_hits + r.edge_cache_misses).max(1);
        out.set(
            "mem.edge_cache_hit_rate",
            r.edge_cache_hits as f64 / lookups as f64,
        );
    }
}
