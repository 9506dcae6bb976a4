//! Property tests of the simulation kernel against simple reference
//! models: the pipeline behaves like a timestamped `VecDeque` that takes
//! one entry per cycle and retires in issue order after exactly `depth`
//! cycles, and the event wheel is a stable priority queue.
//!
//! Randomized cases are driven by the workspace's deterministic
//! [`gp_sim::rng::StdRng`], so every run exercises the same inputs.

use std::collections::VecDeque;

use gp_sim::rng::{Rng, StdRng};
use gp_sim::{Cycle, EventWheel, Pipeline};

#[derive(Debug, Clone)]
enum PipeOp {
    Issue(u16),
    Retire,
    Advance(u8),
}

fn random_pipe_ops(rng: &mut StdRng) -> Vec<PipeOp> {
    let len = rng.gen_range(1..200usize);
    (0..len)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => PipeOp::Issue(rng.gen_range(0..u64::from(u16::MAX) as u32 + 1) as u16),
            1 => PipeOp::Retire,
            _ => PipeOp::Advance(rng.gen_range(1..10u8)),
        })
        .collect()
}

#[test]
fn pipeline_matches_reference_model() {
    let mut rng = StdRng::seed_from_u64(0xF1F0);
    for case in 0..200 {
        let ops = random_pipe_ops(&mut rng);
        let depth = rng.gen_range(1..8u64);
        let mut pipe = Pipeline::new(depth);
        let mut model: VecDeque<(u64, u16)> = VecDeque::new();
        let mut last_issue: Option<u64> = None;
        let mut now = Cycle::ZERO;
        for op in &ops {
            match *op {
                PipeOp::Issue(v) => {
                    // One issue per cycle: a second one must be refused.
                    let model_accepts = last_issue.is_none_or(|t| t < now.get());
                    assert_eq!(pipe.can_issue(now), model_accepts, "case {case}");
                    if model_accepts {
                        pipe.issue(now, v);
                        last_issue = Some(now.get());
                        model.push_back((now.get() + depth, v));
                    }
                }
                PipeOp::Retire => {
                    let got = pipe.retire(now);
                    let expected = match model.front() {
                        Some(&(ready, v)) if ready <= now.get() => {
                            model.pop_front();
                            Some(v)
                        }
                        _ => None,
                    };
                    assert_eq!(got, expected, "case {case}");
                }
                PipeOp::Advance(d) => now += u64::from(d),
            }
            assert_eq!(pipe.len(), model.len(), "case {case}");
            assert_eq!(pipe.is_empty(), model.is_empty(), "case {case}");
        }
    }
}

#[test]
fn pipeline_retires_in_order_after_depth() {
    let mut rng = StdRng::seed_from_u64(0x9199);
    for case in 0..200 {
        let gaps: Vec<u64> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen_range(1..5u64))
            .collect();
        let depth = rng.gen_range(1..8u64);
        let mut p = Pipeline::new(depth);
        let mut now = Cycle::ZERO;
        let mut issued = Vec::new();
        for (i, gap) in gaps.iter().enumerate() {
            assert!(p.can_issue(now), "case {case}");
            p.issue(now, i);
            issued.push((now, i));
            now += *gap;
        }
        // Drain: each op retires exactly at issue + depth, in order.
        let mut retired = Vec::new();
        let mut t = Cycle::ZERO;
        while retired.len() < issued.len() {
            while let Some(v) = p.retire(t) {
                retired.push((t, v));
            }
            t = t.next();
            assert!(t.get() < 10_000, "pipeline livelock in case {case}");
        }
        for ((issue_t, a), (retire_t, b)) in issued.iter().zip(&retired) {
            assert_eq!(a, b, "case {case}");
            assert_eq!(retire_t.get(), issue_t.get() + depth, "case {case}");
        }
    }
}

#[test]
fn wheel_pops_sorted_and_stable() {
    let mut rng = StdRng::seed_from_u64(0x8EE1);
    for case in 0..200 {
        let entries: Vec<(u64, u16)> = (0..rng.gen_range(1..100usize))
            .map(|_| {
                (
                    rng.gen_range(0..100u64),
                    rng.gen_range(0..u64::from(u16::MAX) as u32 + 1) as u16,
                )
            })
            .collect();
        let mut wheel = EventWheel::new();
        for (t, v) in &entries {
            wheel.schedule(Cycle::new(*t), (*t, *v));
        }
        let mut expected: Vec<(u64, u16)> = entries.clone();
        // Stable by time: equal timestamps keep insertion order.
        expected.sort_by_key(|(t, _)| *t);
        let mut got = Vec::new();
        while let Some(x) = wheel.pop_due(Cycle::NEVER) {
            got.push(x);
        }
        assert_eq!(got, expected, "case {case}");
    }
}
