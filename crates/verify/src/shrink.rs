//! Greedy shrinking of failing cases to minimal repros.
//!
//! The shrinker repeatedly tries simplifications that keep the case
//! failing — removing update chunks, removing edge chunks, truncating the
//! vertex set, and flattening weights — until a fixpoint (or an evaluation
//! budget) is reached. The result is rendered by [`regression_test`] as a
//! ready-to-paste `#[test]` reconstructing the case literally.

use gp_graph::EdgeUpdate;

use crate::case::TestCase;
use crate::oracle::{run_case, Failure, Fault};

/// Maximum number of oracle evaluations one shrink is allowed.
const MAX_EVALS: usize = 400;

struct Shrinker {
    fault: Option<Fault>,
    evals: usize,
    last_failure: Failure,
}

impl Shrinker {
    /// Whether `case` still fails; remembers the failure so the final
    /// repro carries an up-to-date diagnosis.
    fn still_fails(&mut self, case: &TestCase) -> bool {
        if self.evals >= MAX_EVALS {
            return false;
        }
        self.evals += 1;
        match run_case(case, self.fault) {
            Err(f) => {
                self.last_failure = f;
                true
            }
            Ok(()) => false,
        }
    }

    /// ddmin-style chunked removal from a list accessed through `get`/`set`.
    fn minimize_list<T: Clone>(
        &mut self,
        case: &mut TestCase,
        get: fn(&TestCase) -> &Vec<T>,
        set: fn(&mut TestCase, Vec<T>),
    ) -> bool {
        let mut changed = false;
        let mut chunk = get(case).len().div_ceil(2).max(1);
        loop {
            let mut start = 0;
            while start < get(case).len() {
                let items = get(case);
                let end = (start + chunk).min(items.len());
                let mut candidate: Vec<T> = Vec::with_capacity(items.len() - (end - start));
                candidate.extend_from_slice(&items[..start]);
                candidate.extend_from_slice(&items[end..]);
                let mut trial = case.clone();
                set(&mut trial, candidate);
                if self.still_fails(&trial) {
                    *case = trial;
                    changed = true;
                    // Same start now addresses the next window.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        changed
    }

    /// Truncates the vertex set to `keep` vertices, dropping out-of-range
    /// edges/updates and clamping the root.
    fn truncated(case: &TestCase, keep: usize) -> TestCase {
        let keep = keep.max(1);
        let n = keep as u32;
        let mut t = case.clone();
        t.vertices = keep;
        t.edges.retain(|&(s, d, _)| s < n && d < n);
        t.updates.retain(|u| match *u {
            EdgeUpdate::Insert { src, dst, .. } | EdgeUpdate::Delete { src, dst } => {
                src.get() < n && dst.get() < n
            }
        });
        t.root = t.root.min(n - 1);
        t
    }

    fn shrink_vertices(&mut self, case: &mut TestCase) -> bool {
        let mut changed = false;
        loop {
            let n = case.vertices;
            if n <= 1 {
                break;
            }
            // Halve aggressively, then trim one vertex at a time.
            let half = Self::truncated(case, n / 2);
            if self.still_fails(&half) {
                *case = half;
                changed = true;
                continue;
            }
            let minus_one = Self::truncated(case, n - 1);
            if self.still_fails(&minus_one) {
                *case = minus_one;
                changed = true;
                continue;
            }
            break;
        }
        changed
    }

    /// Flattens all weights to `1.0` (one attempt — weights rarely matter).
    fn shrink_weights(&mut self, case: &mut TestCase) -> bool {
        if !case.algo.weighted() {
            return false;
        }
        let mut trial = case.clone();
        for e in &mut trial.edges {
            e.2 = 1.0;
        }
        for u in &mut trial.updates {
            if let EdgeUpdate::Insert { weight, .. } = u {
                *weight = 1.0;
            }
        }
        if trial.edges == case.edges && trial.updates == case.updates {
            return false;
        }
        if self.still_fails(&trial) {
            *case = trial;
            return true;
        }
        false
    }
}

/// Greedily shrinks `case` (known to fail under `fault`) to a smaller one
/// that still fails, returning it with its (possibly different) failure.
pub fn shrink(case: &TestCase, fault: Option<Fault>, failure: &Failure) -> (TestCase, Failure) {
    let mut s = Shrinker {
        fault,
        evals: 0,
        last_failure: failure.clone(),
    };
    let mut best = case.clone();
    loop {
        let mut changed = false;
        changed |= s.minimize_list(&mut best, |c| &c.updates, |c, v| c.updates = v);
        changed |= s.shrink_vertices(&mut best);
        changed |= s.minimize_list(&mut best, |c| &c.edges, |c, v| c.edges = v);
        changed |= s.shrink_weights(&mut best);
        if !changed || s.evals >= MAX_EVALS {
            break;
        }
    }
    (best, s.last_failure)
}

fn render_update(u: &EdgeUpdate) -> String {
    match *u {
        EdgeUpdate::Insert { src, dst, weight } => format!(
            "gp_graph::EdgeUpdate::Insert {{ src: gp_graph::VertexId::new({}), \
             dst: gp_graph::VertexId::new({}), weight: {weight:?} }}",
            src.get(),
            dst.get()
        ),
        EdgeUpdate::Delete { src, dst } => format!(
            "gp_graph::EdgeUpdate::Delete {{ src: gp_graph::VertexId::new({}), \
             dst: gp_graph::VertexId::new({}) }}",
            src.get(),
            dst.get()
        ),
    }
}

/// Renders `case` as a ready-to-paste regression test that rebuilds it
/// literally and asserts the oracle passes.
pub fn regression_test(case: &TestCase, fault: Option<Fault>, failure: &Failure) -> String {
    let edges = case
        .edges
        .iter()
        .map(|&(s, d, w)| format!("({s}, {d}, {w:?})"))
        .collect::<Vec<_>>()
        .join(", ");
    let updates = case
        .updates
        .iter()
        .map(render_update)
        .collect::<Vec<_>>()
        .join(",\n            ");
    let m = &case.machine;
    let fault_note = match fault {
        Some(f) => format!("\n    // NOTE: originally failed under injected fault {f:?}."),
        None => String::new(),
    };
    format!(
        "#[test]\n\
         fn fuzz_regression() {{\n\
         \x20   // Shrunk repro; failing check was \"{check}\":\n\
         \x20   //   {detail}{fault_note}\n\
         \x20   let case = gp_verify::TestCase {{\n\
         \x20       vertices: {vertices},\n\
         \x20       edges: vec![{edges}],\n\
         \x20       algo: gp_algorithms::App::{algo:?},\n\
         \x20       root: {root},\n\
         \x20       aux_seed: {aux_seed},\n\
         \x20       updates: vec![\n            {updates}\n        ],\n\
         \x20       batch_size: {batch_size},\n\
         \x20       machine: gp_verify::MachineParams {{\n\
         \x20           processors: {processors},\n\
         \x20           gen_streams: {gen_streams},\n\
         \x20           queue_bins: {queue_bins},\n\
         \x20           queue_rows: {queue_rows},\n\
         \x20           queue_cols: {queue_cols},\n\
         \x20           coalescer_depth: {coalescer_depth},\n\
         \x20           prefetch: {prefetch},\n\
         \x20           occupancy_first: {occupancy_first},\n\
         \x20           single_channel_dram: {single_channel_dram},\n\
         \x20           epoch_cycles: {epoch_cycles},\n\
         \x20           forced_shards: {forced_shards},\n\
         \x20       }},\n\
         \x20   }};\n\
         \x20   gp_verify::run_case(&case, None).unwrap();\n\
         }}\n",
        check = failure.check,
        detail = failure.detail,
        vertices = case.vertices,
        algo = case.algo,
        root = case.root,
        aux_seed = case.aux_seed,
        batch_size = case.batch_size,
        processors = m.processors,
        gen_streams = m.gen_streams,
        queue_bins = m.queue_bins,
        queue_rows = m.queue_rows,
        queue_cols = m.queue_cols,
        coalescer_depth = m.coalescer_depth,
        prefetch = m.prefetch,
        occupancy_first = m.occupancy_first,
        single_channel_dram = m.single_channel_dram,
        epoch_cycles = m.epoch_cycles,
        forced_shards = m.forced_shards,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::generate;

    #[test]
    fn injected_fault_shrinks_to_a_tiny_case() {
        let case = generate(11);
        let failure = run_case(&case, Some(Fault::MergeSkew)).expect_err("fault must fail");
        let (small, last) = shrink(&case, Some(Fault::MergeSkew), &failure);
        // MergeSkew perturbs vertex 0 unconditionally, so the minimal
        // repro is a near-empty case.
        assert!(small.vertices <= 32, "vertices: {}", small.vertices);
        assert!(small.edges.len() <= 4, "edges: {}", small.edges.len());
        assert!(small.updates.is_empty());
        assert!(run_case(&small, Some(Fault::MergeSkew)).is_err());
        assert_eq!(last.check, "differential-parallel");
    }

    #[test]
    fn regression_test_rendering_contains_the_case() {
        let case = generate(4);
        let failure = Failure {
            check: "example",
            detail: "detail".into(),
        };
        let code = regression_test(&case, None, &failure);
        assert!(code.contains("fn fuzz_regression()"));
        assert!(code.contains(&format!("vertices: {}", case.vertices)));
        assert!(code.contains("gp_verify::run_case(&case, None).unwrap();"));
        assert!(code.contains("example"));
    }

    #[test]
    fn shrinking_a_passing_case_is_identity() {
        let case = generate(1);
        assert!(run_case(&case, None).is_ok());
        // still_fails() is false everywhere, so nothing changes.
        let failure = Failure {
            check: "none",
            detail: String::new(),
        };
        let (same, _) = shrink(&case, None, &failure);
        assert_eq!(same.vertices, case.vertices);
        assert_eq!(same.edges, case.edges);
    }
}
