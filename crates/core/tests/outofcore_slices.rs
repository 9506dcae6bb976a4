//! The cycle-level accelerator and its slice-swapping machinery running
//! *unmodified* over a disk-resident graph: every backend in this crate is
//! generic over `GraphView`, so a [`MappedCsr`] opened from an on-disk
//! container must produce bit-identical outcomes to the same machine over
//! the resident [`CsrGraph`] it holds (the written graph relabeled by the
//! container's ranks) — including when the queue is undersized and the
//! §IV-F slicing path does the work.

use std::fs;
use std::path::PathBuf;

use gp_algorithms::{Bfs, ConnectedComponents, DeltaAlgorithm, PageRankDelta, Sssp};
use gp_graph::container::write_container;
use gp_graph::generators::{rmat, RmatConfig, WeightMode};
use gp_graph::{CsrGraph, MappedCsr};
use gp_mem::integrity::Storable;
use graphpulse_core::{AcceleratorConfig, GraphPulse, QueueConfig};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gp-core-ooc-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

fn fixture(scratch: &Scratch, weighted: bool) -> (CsrGraph, MappedCsr) {
    let wm = if weighted {
        WeightMode::Uniform(0.5, 4.0)
    } else {
        WeightMode::Unweighted
    };
    let cfg = RmatConfig::graph500(512, 2048).with_weights(wm);
    let g = rmat(&cfg, 21);
    let path = scratch.0.join(format!("fixture-{weighted}.gpc"));
    write_container(&g, &path).unwrap();
    let mapped = MappedCsr::open_verified(&path).unwrap();
    let rank: Vec<u32> = g.vertices().map(|s| mapped.container_id(s).get()).collect();
    (g.relabel(&rank), mapped)
}

/// A machine whose queue holds far fewer vertices than the graph, forcing
/// the multi-slice execution path.
fn sliced_machine() -> GraphPulse {
    let mut cfg = AcceleratorConfig::small_test();
    cfg.queue = QueueConfig {
        bins: 2,
        rows: 16,
        cols: 4,
    }; // 128 slots for 512 vertices => >= 4 slices
    cfg.input_buffer = cfg.input_buffer.max(cfg.queue.cols);
    GraphPulse::new(cfg)
}

fn assert_same_outcome<A>(algo: &A, resident: &CsrGraph, mapped: &MappedCsr)
where
    A: DeltaAlgorithm,
    A::Value: Storable,
{
    let gp = sliced_machine();
    let on_ram = gp.run(resident, algo).unwrap();
    let on_disk = gp.run(mapped, algo).unwrap();
    assert!(
        on_disk.report.slices >= 2,
        "queue was meant to force slicing, got {} slice(s)",
        on_disk.report.slices
    );
    assert_eq!(on_disk.report.slices, on_ram.report.slices);
    assert_eq!(on_disk.report.cycles, on_ram.report.cycles);
    assert_eq!(
        on_disk.report.events_processed,
        on_ram.report.events_processed
    );
    assert_eq!(
        on_disk.report.events_generated,
        on_ram.report.events_generated
    );
    let ram_bits: Vec<u64> = on_ram.values.iter().map(|v| v.to_bits()).collect();
    let disk_bits: Vec<u64> = on_disk.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(disk_bits, ram_bits, "values diverged over the mapping");

    // Shard-parallel engine over the mapping (needs MappedCsr: Sync).
    let par_ram = gp.run_parallel(resident, algo).unwrap();
    let par_disk = gp.run_parallel(mapped, algo).unwrap();
    let pram: Vec<u64> = par_ram.values.iter().map(|v| v.to_bits()).collect();
    let pdisk: Vec<u64> = par_disk.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(pdisk, pram, "parallel values diverged over the mapping");
    assert_eq!(par_disk.report.cycles, par_ram.report.cycles);
    assert_eq!(par_disk.epochs, par_ram.epochs);
}

#[test]
fn sliced_accelerator_is_bit_identical_on_mapped_unweighted_graph() {
    let scratch = Scratch::new("unweighted");
    let (g, mapped) = fixture(&scratch, false);
    assert_same_outcome(&PageRankDelta::new(0.85, 1e-7), &g, &mapped);
    assert_same_outcome(&Bfs::new(gp_graph::VertexId::new(0)), &g, &mapped);
    assert_same_outcome(&ConnectedComponents::new(), &g, &mapped);
}

#[test]
fn sliced_accelerator_is_bit_identical_on_mapped_weighted_graph() {
    let scratch = Scratch::new("weighted");
    let (g, mapped) = fixture(&scratch, true);
    assert_same_outcome(&Sssp::new(gp_graph::VertexId::new(0)), &g, &mapped);
}
