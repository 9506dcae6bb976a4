//! Shrinker-produced fuzz repros, promoted to permanent regression tests.
//!
//! Each case below was found by the fuzz driver under an injected
//! `merge-order` fault (`fuzz --seed N --iters 200 --inject-fault
//! merge-order`) and minimized by the ddmin shrinker to a single-vertex
//! machine-geometry nucleus. They are kept in two forms: clean runs (the
//! shrunk case must pass every oracle leg with no fault — pinning that the
//! shrinker emits *valid* cases), and faulted runs (the injected defect
//! must still be caught on the minimal geometry — pinning the oracle's
//! detection floor).

use gp_algorithms::App;
use gp_verify::{generate, run_case, Fault, MachineParams, TestCase};

/// Shrunk from fuzz `--seed 7`: SSWP on a single isolated root. Failing
/// check was `differential-parallel`
/// (`max |diff| inf > tolerance 0e0`, vertex 0: got 0, golden inf).
fn repro_seed7_sswp_isolated_root() -> TestCase {
    TestCase {
        vertices: 1,
        edges: vec![],
        algo: App::Sswp,
        root: 0,
        aux_seed: 5688135274254200921,
        updates: vec![],
        batch_size: 10,
        machine: MachineParams {
            processors: 1,
            gen_streams: 3,
            queue_bins: 1,
            queue_rows: 13,
            queue_cols: 1,
            coalescer_depth: 1,
            prefetch: false,
            occupancy_first: false,
            single_channel_dram: false,
            epoch_cycles: 128,
            forced_shards: 1,
        },
    }
}

/// Shrunk from fuzz `--seed 8`: BFS, two processors, occupancy-first
/// draining, forced two shards on one vertex. Failing check was
/// `differential-parallel` (`max |diff| 1e0`, vertex 0: got 1, golden 0).
fn repro_seed8_bfs_forced_shards() -> TestCase {
    TestCase {
        vertices: 1,
        edges: vec![],
        algo: App::Bfs,
        root: 0,
        aux_seed: 17764872561908459043,
        updates: vec![],
        batch_size: 12,
        machine: MachineParams {
            processors: 2,
            gen_streams: 1,
            queue_bins: 2,
            queue_rows: 23,
            queue_cols: 1,
            coalescer_depth: 1,
            prefetch: false,
            occupancy_first: true,
            single_channel_dram: true,
            epoch_cycles: 128,
            forced_shards: 2,
        },
    }
}

/// Shrunk from fuzz `--seed 9`: SSSP with prefetch, deep coalescer, and
/// three forced shards. Failing check was `differential-parallel`
/// (`max |diff| 1e0`, vertex 0: got 1, golden 0).
fn repro_seed9_sssp_prefetch() -> TestCase {
    TestCase {
        vertices: 1,
        edges: vec![],
        algo: App::Sssp,
        root: 0,
        aux_seed: 8653046082777018145,
        updates: vec![],
        batch_size: 10,
        machine: MachineParams {
            processors: 3,
            gen_streams: 2,
            queue_bins: 1,
            queue_rows: 19,
            queue_cols: 4,
            coalescer_depth: 4,
            prefetch: true,
            occupancy_first: false,
            single_channel_dram: true,
            epoch_cycles: 1024,
            forced_shards: 3,
        },
    }
}

/// Shrunk from fuzz `--seed 7 --inject-fault drop-event`: SSWP on a
/// 7-edge chain hanging off root 25. Failing check was `chaos-detection`
/// (per-epoch conservation: generated 8 != processed 7 + coalesced 0,
/// deficit 1 — the dropped propagation caught by the event-conservation
/// watchdog on the minimal graph that still reaches the trigger index).
fn repro_seed7_sswp_drop_event() -> TestCase {
    TestCase {
        vertices: 26,
        edges: vec![
            (17, 8, 1.0),
            (20, 22, 1.0),
            (21, 1, 1.0),
            (21, 17, 1.0),
            (21, 20, 1.0),
            (25, 18, 1.0),
            (25, 21, 1.0),
        ],
        algo: App::Sswp,
        root: 25,
        aux_seed: 5688135274254200921,
        updates: vec![],
        batch_size: 10,
        machine: MachineParams {
            processors: 1,
            gen_streams: 3,
            queue_bins: 1,
            queue_rows: 13,
            queue_cols: 1,
            coalescer_depth: 1,
            prefetch: false,
            occupancy_first: false,
            single_channel_dram: false,
            epoch_cycles: 128,
            forced_shards: 1,
        },
    }
}

#[test]
fn fuzz_regression_seed7_sswp_isolated_root() {
    run_case(&repro_seed7_sswp_isolated_root(), None).unwrap();
}

#[test]
fn fuzz_regression_seed8_bfs_forced_shards() {
    run_case(&repro_seed8_bfs_forced_shards(), None).unwrap();
}

#[test]
fn fuzz_regression_seed9_sssp_prefetch() {
    run_case(&repro_seed9_sssp_prefetch(), None).unwrap();
}

#[test]
fn fuzz_regression_seed7_sswp_drop_event() {
    // Clean run: the shrunk case passes every oracle leg without a fault.
    run_case(&repro_seed7_sswp_drop_event(), None).unwrap();
}

#[test]
fn drop_event_repro_is_still_detected_in_engine() {
    let failure = run_case(&repro_seed7_sswp_drop_event(), Some(Fault::DropEvent))
        .expect_err("minimal graph must still expose the dropped event");
    assert_eq!(failure.check, "chaos-detection", "{failure}");
    assert!(
        failure.detail.contains("event-conservation"),
        "detection must come from the conservation watchdog: {failure}"
    );
}

#[test]
fn oracle_passes_on_fixed_corpus_cases() {
    // Full oracle sweep on a fixed corpus slice — the exact check the
    // fuzzer runs, pinned.
    for seed in [7u64, 8, 9] {
        run_case(&generate(seed), None).unwrap();
    }
}

// --- `differential-outofcore` oracle leg ---------------------------------
//
// When the mmap-backed container landed, the fuzz driver ran the full
// oracle (now including `differential-outofcore`: golden and turbo re-run
// over an on-disk mapping, demanded bit-exact with their resident runs)
// across the fixed corpus and found no divergence — nothing for the
// shrinker to minimize. Per the promotion protocol, the corruption paths
// the leg depends on are pinned here instead, as fixed-seed repros: each
// corruption class is applied to the container of a corpus-case graph and
// must surface as its typed `ReadGraphError` — never a panic and never a
// silently-open graph.

use gp_graph::container::{write_container, SegmentDigest, HEADER_DIGEST_AT};
use gp_graph::io::ReadGraphError;
use gp_graph::MappedCsr;

/// Writes the container of the corpus case at `seed` and returns its path
/// and raw bytes. Caller owns cleanup via the returned scratch dir.
fn corpus_container(seed: u64) -> (std::path::PathBuf, std::path::PathBuf, Vec<u8>) {
    let g = generate(seed).build_graph();
    assert!(g.num_edges() > 0, "corpus seed {seed} produced no edges");
    let dir = std::env::temp_dir().join(format!("gp-regress-ooc-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.gpc");
    write_container(&g, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (dir, path, bytes)
}

fn reopen(path: &std::path::Path, bytes: &[u8]) -> Result<MappedCsr, ReadGraphError> {
    std::fs::write(path, bytes).unwrap();
    MappedCsr::open_verified(path)
}

/// Fixed-seed corruption repros: every class of container damage on the
/// seed-7 corpus graph returns its typed error through the exact
/// `open_verified` path the oracle leg uses.
#[test]
fn outofcore_corruption_classes_stay_typed_on_corpus_graph() {
    let (dir, path, healthy) = corpus_container(7);

    // Undamaged baseline opens and passes the full oracle-path checks.
    reopen(&path, &healthy).unwrap();

    let mut truncated = healthy.clone();
    truncated.truncate(healthy.len() - 8);
    assert!(matches!(
        reopen(&path, &truncated),
        Err(ReadGraphError::Truncated)
    ));

    let mut magic = healthy.clone();
    magic[1] = b'!';
    assert!(matches!(
        reopen(&path, &magic),
        Err(ReadGraphError::BadMagic)
    ));

    let mut version = healthy.clone();
    version[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert!(matches!(
        reopen(&path, &version),
        Err(ReadGraphError::BadVersion(2))
    ));

    let mut skewed = healthy.clone();
    // out_neighbors descriptor offset (second segment): off the 64-byte
    // grid, header digest resealed so alignment is the failing check.
    let at = 32 + 24;
    let off = u64::from_le_bytes(skewed[at..at + 8].try_into().unwrap());
    skewed[at..at + 8].copy_from_slice(&(off + 8).to_le_bytes());
    let mut d = SegmentDigest::new();
    d.update(&skewed[..HEADER_DIGEST_AT]);
    let digest = d.finish();
    skewed[HEADER_DIGEST_AT..HEADER_DIGEST_AT + 8].copy_from_slice(&digest.to_le_bytes());
    assert!(matches!(
        reopen(&path, &skewed),
        Err(ReadGraphError::Misaligned(_))
    ));

    let mut flipped = healthy.clone();
    let neigh_off = u64::from_le_bytes(flipped[56..64].try_into().unwrap()) as usize;
    flipped[neigh_off] ^= 0x80;
    assert!(matches!(
        reopen(&path, &flipped),
        Err(ReadGraphError::ChecksumMismatch(_))
    ));

    let mut rowptr = healthy.clone();
    let rowptr_off = u64::from_le_bytes(rowptr[32..40].try_into().unwrap()) as usize;
    rowptr[rowptr_off + 4..rowptr_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        reopen(&path, &rowptr),
        Err(ReadGraphError::Corrupt(_))
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn outofcore_oracle_leg_passes_on_fixed_corpus_cases() {
    // Full oracle sweep (which now includes `differential-outofcore`) on a
    // fixed corpus slice — the exact check the fuzzer runs, pinned.
    for seed in [10u64, 11, 12] {
        run_case(&generate(seed), None).unwrap();
    }
}

#[test]
fn shrunk_repros_still_trip_the_oracle_under_the_original_fault() {
    for (name, case) in [
        ("seed7-sswp", repro_seed7_sswp_isolated_root()),
        ("seed8-bfs", repro_seed8_bfs_forced_shards()),
        ("seed9-sssp", repro_seed9_sssp_prefetch()),
    ] {
        let failure = run_case(&case, Some(Fault::MergeSkew))
            .expect_err("minimal geometry must still expose the injected fault");
        assert_eq!(failure.check, "differential-parallel", "{name}: {failure}");
    }
}
