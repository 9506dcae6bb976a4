//! `mapped-r16`: set-up streams the edges through `build_streaming` into a
//! `GPC1` container and opens it with `MappedCsr::open_verified`; one pass
//! = SSSP, BFS and SSWP from each of `ROOTS` roots, and CC, through turbo
//! and golden over the mapping. Few distinct priorities, so the wheel idles
//! and the per-element decode and per-edge accessor dominate. Pages are
//! warm after verification: this measures the mapped access path's CPU
//! cost, not device I/O.
//!
//! Several roots because a rooted solve's work depends on the graph drawn:
//! SSWP from one root processes 220k to 340k events across seeds at 2^16,
//! the sum over four roots varies half as much.

use std::path::PathBuf;

use gp_algorithms::engine::run_sequential;
use gp_algorithms::{Bfs, ConnectedComponents, Sssp, Sswp};
use gp_graph::container::{build_streaming, StreamBuildOptions, Traffic};
use gp_graph::generators::rmat_edges;
use gp_graph::{MappedCsr, MeteredView, VertexId};

use super::{hubs, rmat_config, solve_layers, Solve, BFS, CC, SSSP, SSWP};
use crate::harness::{Layers, Params, Pass, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Rooted solves start from the vertices with the highest out-degrees.
const ROOTS: usize = 4;

pub struct Mapped {
    path: PathBuf,
    graph: MappedCsr,
    roots: Vec<VertexId>,
    /// The last pass's solves of SSSP, BFS, CC and SSWP.
    solves: [Vec<Solve>; 4],
    traffic: Traffic,
}

impl Workload for Mapped {
    fn setup(p: &Params, tr: &mut Tracer) -> Mapped {
        let config = rmat_config(p.log2(16));
        let path = p.out_dir.join("mapped.gpc");
        let opts = StreamBuildOptions {
            weighted: true,
            ..StreamBuildOptions::default()
        };
        tr.span("build_streaming", |tr| {
            build_streaming(&path, config.vertices, &opts, |sink| {
                tr.span("rmat_edges", |_| rmat_edges(&config, p.seed, sink));
            })
        })
        .unwrap_or_else(|e| panic!("cannot build {}: {e}", path.display()));
        let graph = tr
            .span("MappedCsr::open_verified", |_| {
                MappedCsr::open_verified(&path)
            })
            .unwrap_or_else(|e| panic!("cannot open {}: {e:?}", path.display()));
        Mapped {
            roots: hubs(&graph, ROOTS),
            path,
            graph,
            solves: Default::default(),
            traffic: Traffic::default(),
        }
    }

    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let (g, roots) = (&self.graph, &self.roots);
        self.solves = [
            roots
                .iter()
                .map(|&r| Solve::run(&SSSP, &Sssp::new(r), g, tr))
                .collect(),
            roots
                .iter()
                .map(|&r| Solve::run(&BFS, &Bfs::new(r), g, tr))
                .collect(),
            vec![Solve::run(&CC, &ConnectedComponents::new(), g, tr)],
            roots
                .iter()
                .map(|&r| Solve::run(&SSWP, &Sswp::new(r), g, tr))
                .collect(),
        ];
        let prints: Vec<u64> = self
            .solves
            .iter()
            .flatten()
            .flat_map(Solve::prints)
            .collect();
        Pass {
            attempted: prints.len() as u64,
            failed: 0,
            prints,
        }
    }

    fn verify(&mut self) -> u64 {
        self.solves.iter().flatten().filter(|s| !s.agrees()).count() as u64
    }

    /// One golden SSSP over a metered view: the bytes the access pattern
    /// moves per edge, which a faster accessor must leave as they are.
    fn probe(&mut self, tr: &mut Tracer) {
        let metered = MeteredView::new(&self.graph);
        tr.span("run_sequential:metered", |_| {
            run_sequential(&Sssp::new(self.roots[0]), &metered)
        });
        self.traffic = metered.snapshot();
    }

    fn layers(&self, tr: &Tracer, _passes: usize, out: &mut Layers) {
        out.set("graph.generate_s", median(&tr.seconds("rmat_edges", false)));
        out.set(
            "graph.container_build_s",
            median(&tr.seconds("build_streaming", false)),
        );
        out.set(
            "graph.container_open_s",
            median(&tr.seconds("MappedCsr::open_verified", false)),
        );
        out.set("graph.container_bytes", self.graph.file_bytes() as f64);
        out.set("graph.mapped_bytes_per_edge", self.traffic.bytes_per_edge());
        out.set("graph.mapped_edges_read", self.traffic.edges_read as f64);
        for (alg, solves) in [SSSP, BFS, CC, SSWP].iter().zip(&self.solves) {
            solve_layers(alg, solves, tr, out);
        }
    }

    fn teardown(self) {
        drop(self.graph);
        std::fs::remove_file(&self.path).ok();
    }
}
