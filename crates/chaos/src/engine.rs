//! The chaos executor: golden-engine semantics under deterministic fault
//! injection, with in-engine detection and checkpoint/rollback recovery.
//!
//! [`run_chaos`] executes the exact FIFO-worklist discipline of
//! [`run_sequential`](gp_algorithms::engine::run_sequential) — same
//! deposit/coalesce/pop order, hence bit-identical values on a fault-free
//! run — but chops the run into *epochs* of at most
//! [`EPOCH_EVENTS`] processed events. Epoch boundaries are
//! where everything interesting happens:
//!
//! * **injection** — the event-layer faults ([`FaultKind::DropEvent`],
//!   [`FaultKind::DuplicateEvent`], [`FaultKind::DelayEvent`]) fire on a
//!   seed-derived global deposit index; [`FaultKind::BitFlip`] corrupts
//!   the vertex-property store at a seed-derived epoch boundary,
//!   bypassing the apply path;
//! * **detection** — every epoch is closed by an event-conservation
//!   check (the carry-in/carry-out mapping below, delegated to
//!   [`EventCounts::check`]), a periodic memory
//!   scrub of the [`ShadowChecksum`], and a convergence budget;
//! * **recovery** — clean verified epochs are checkpointed (values +
//!   pending-event queue); a detection rolls back to the last checkpoint
//!   and retries under a bounded backoff (each rollback halves the
//!   verification interval), repeatedly-faulting memory regions are
//!   quarantined, and an exhausted retry budget degrades to the golden
//!   engine from the last good checkpoint.
//!
//! # The per-epoch conservation identity
//!
//! Within one epoch, every deposit increments `generated` and either
//! coalesces into an occupied slot or parks a new worklist entry; every
//! pop increments `processed`. Folding the worklist carry-in/carry-out
//! into the identity gives the exact balance
//!
//! ```text
//! generatedₑ + carry_in == coalescedₑ + processedₑ + carry_out
//! ```
//!
//! which holds with equality on every clean epoch and is violated — as a
//! deficit by drops and in-flight delays, as a surplus by duplicates and
//! late redeliveries — by every event-layer fault.

use std::collections::VecDeque;

use gp_algorithms::engine::{
    apply_event, for_each_propagated, initial_state, run_sequential_seeded, EngineOutput,
    EventCounts,
};
use gp_algorithms::{max_abs_diff, same_bits, DeltaAlgorithm};
use gp_graph::{GraphView, VertexId};
use gp_mem::integrity::{checkpoint_bytes, BitUpset, ShadowChecksum, Storable};

use crate::plan::{FaultKind, FaultPlan};

/// Events processed per epoch (the detection granularity).
pub const EPOCH_EVENTS: usize = 16;

/// Vertices per shadow-checksum region (the quarantine granule).
pub const REGION_LEN: usize = 8;

/// Convergence watchdog: total epoch executions (replays included) before
/// the run is declared stuck.
pub const MAX_EPOCHS: u64 = 100_000;

/// Scrub detections in one region before it is quarantined.
pub const QUARANTINE_THRESHOLD: u32 = 2;

/// The recovery knobs of [`run_chaos`] that callers vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Scrub-and-checkpoint cadence in epochs. `1` verifies every epoch;
    /// larger values trade detection latency for checkpoint cost. The
    /// conservation check always runs every epoch (counters are free).
    pub verify_every: u64,
    /// Rollback budget before degradation.
    pub max_retries: u32,
    /// Fall back to the golden engine when retries are exhausted. When
    /// `false`, an unrecovered detection is reported in
    /// [`ChaosOutcome::unrecovered`] instead.
    pub degrade: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            verify_every: 1,
            max_retries: 4,
            degrade: true,
        }
    }
}

/// Which in-engine watchdog fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// The per-epoch event-conservation identity failed.
    EventConservation,
    /// The periodic memory scrub found a region whose recomputed digest
    /// disagrees with the shadow checksum.
    MemoryScrub,
    /// The run crossed its epoch budget without converging.
    ConvergenceBudget,
}

impl Detector {
    /// Stable label for logs and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Detector::EventConservation => "event-conservation",
            Detector::MemoryScrub => "memory-scrub",
            Detector::ConvergenceBudget => "convergence-budget",
        }
    }
}

/// One watchdog firing.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Total epoch index (monotone across replays) at detection time.
    pub epoch: u64,
    /// Attempt number (1 = first execution, +1 per rollback).
    pub attempt: u32,
    /// Which watchdog fired.
    pub detector: Detector,
    /// Epochs between the last injection and this detection (`0` = caught
    /// in the injection epoch).
    pub latency_epochs: u64,
    /// Human-readable diagnosis.
    pub message: String,
}

/// Result of a [`run_chaos`] execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Final vertex values projected to `f64`; bit-identical to
    /// [`run_sequential`](gp_algorithms::engine::run_sequential) on a
    /// fault-free run and on every rollback-recovered run.
    pub values: Vec<f64>,
    /// Every watchdog firing, in order.
    pub detections: Vec<Detection>,
    /// Rollbacks performed.
    pub rollbacks: u32,
    /// Whether the run finished on the golden-engine degradation path.
    pub degraded: bool,
    /// Quarantined memory regions (region indices; see
    /// [`REGION_LEN`]).
    pub quarantined: Vec<usize>,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Words (values + queued events) copied into checkpoints.
    pub checkpoint_words: u64,
    /// Line-rounded bytes of checkpoint traffic
    /// ([`gp_mem::integrity::checkpoint_bytes`]).
    pub checkpoint_bytes: u64,
    /// Events generated, coalesced and processed on the accepted
    /// execution path (rolled-back work excluded; degraded-continuation
    /// work included). A recovered run satisfies [`EventCounts::check`].
    pub events: EventCounts,
    /// Events whose processing was discarded by rollbacks (the recovery
    /// overhead numerator).
    pub wasted_events: u64,
    /// Total epochs executed, replays included.
    pub epochs: u64,
    /// Set when a detection could not be recovered (retries exhausted and
    /// degradation disabled): the diagnosis of the unrecovered fault.
    /// The values must then be treated as corrupt.
    pub unrecovered: Option<String>,
}

impl ChaosOutcome {
    /// The rule a fault-free run keeps: it is the golden run — the value
    /// bits of [`run_sequential`](gp_algorithms::engine::run_sequential)
    /// and its events processed and generated. The oracle's chaos leg and
    /// the campaign's `bitexact` both check it here.
    ///
    /// # Errors
    ///
    /// Names both runs' counters and the largest value difference.
    pub fn check_golden(&self, golden: &EngineOutput) -> Result<(), String> {
        if same_bits(&self.values, &golden.values)
            && self.events.processed == golden.events_processed
            && self.events.generated == golden.events_generated
        {
            return Ok(());
        }
        Err(format!(
            "clean chaos run is not bit-exact with golden \
             (processed {} vs {}, generated {} vs {}, max |diff| {:e})",
            self.events.processed,
            golden.events_processed,
            self.events.generated,
            golden.events_generated,
            max_abs_diff(&self.values, &golden.values)
        ))
    }
}

struct Checkpoint<A: DeltaAlgorithm> {
    /// Logical epoch this checkpoint restores to (state as of the start
    /// of that epoch's pops).
    epoch: u64,
    values: Vec<A::Value>,
    queue: Vec<(u32, A::Delta)>,
    totals: EventCounts,
    shadow: ShadowChecksum,
}

struct ExecState<A: DeltaAlgorithm> {
    values: Vec<A::Value>,
    pending: Vec<Option<A::Delta>>,
    worklist: VecDeque<u32>,
    shadow: ShadowChecksum,
    /// Counts since the start of the run.
    totals: EventCounts,
    /// Counts since the start of the current epoch.
    epoch: EventCounts,
}

impl<A: DeltaAlgorithm> ExecState<A> {
    fn raw_insert(&mut self, algo: &A, v: u32, d: A::Delta) {
        let slot = &mut self.pending[v as usize];
        match slot {
            Some(existing) => {
                *existing = algo.coalesce(*existing, d);
                self.epoch.coalesced += 1;
                self.totals.coalesced += 1;
            }
            None => {
                *slot = Some(d);
                self.worklist.push_back(v);
            }
        }
    }

    fn queue_snapshot(&self) -> Vec<(u32, A::Delta)> {
        self.worklist
            .iter()
            .map(|&v| {
                (
                    v,
                    self.pending[v as usize].expect("worklist entry without delta"),
                )
            })
            .collect()
    }

    fn restore(&mut self, ckpt: &Checkpoint<A>) {
        self.values.clone_from(&ckpt.values);
        self.shadow = ckpt.shadow.clone();
        self.totals = ckpt.totals;
        self.pending.iter_mut().for_each(|p| *p = None);
        self.worklist.clear();
        for &(v, d) in &ckpt.queue {
            self.pending[v as usize] = Some(d);
            self.worklist.push_back(v);
        }
    }
}

struct Injector<D> {
    plan: Option<FaultPlan>,
    fired: u32,
    /// Delayed events awaiting redelivery: `(release logical epoch,
    /// vertex, delta)`.
    delay: Vec<(u64, u32, D)>,
    /// Total epoch of the most recent firing, for detection latency.
    last_inject: Option<u64>,
}

impl<D> Injector<D> {
    fn armed(&self, kind: FaultKind) -> Option<FaultPlan> {
        self.plan
            .filter(|p| p.kind == kind && self.fired < p.repeats)
    }
}

/// Deposits `delta` for vertex `v` through the injection layer.
fn deposit<A: DeltaAlgorithm>(
    st: &mut ExecState<A>,
    inj: &mut Injector<A::Delta>,
    algo: &A,
    logical: u64,
    total_epochs: u64,
    v: u32,
    d: A::Delta,
) {
    let index = st.totals.generated;
    st.totals.generated += 1;
    st.epoch.generated += 1;
    if let Some(plan) = inj.plan {
        if inj.fired < plan.repeats && index == plan.trigger_index() {
            match plan.kind {
                FaultKind::DropEvent => {
                    inj.fired += 1;
                    inj.last_inject = Some(total_epochs);
                    return; // the event vanishes
                }
                FaultKind::DuplicateEvent => {
                    inj.fired += 1;
                    inj.last_inject = Some(total_epochs);
                    st.raw_insert(algo, v, d); // the phantom copy
                }
                FaultKind::DelayEvent => {
                    inj.fired += 1;
                    inj.last_inject = Some(total_epochs);
                    inj.delay.push((logical + plan.delay_epochs(), v, d));
                    return; // held in flight
                }
                _ => {}
            }
        }
    }
    st.raw_insert(algo, v, d);
}

/// Maps one epoch's counts onto the event-conservation identity and
/// delegates to [`EventCounts::check`]: the worklist carry-in is folded
/// into `generated` and the carry-out into `coalesced`, so the check
/// demands the exact per-epoch balance.
fn check_epoch_conservation(
    epoch: EventCounts,
    carry_in: u64,
    carry_out: u64,
) -> Result<(), String> {
    let carried = EventCounts {
        generated: epoch.generated + carry_in,
        coalesced: epoch.coalesced + carry_out,
        processed: epoch.processed,
    };
    carried.check().map_err(|e| {
        format!(
            "per-epoch conservation: generated {} + carry-in {carry_in} != coalesced {} + \
             processed {} + carry-out {carry_out} ({e})",
            epoch.generated, epoch.coalesced, epoch.processed
        )
    })
}

/// Runs `algo` on `graph` with golden-engine semantics under the fault
/// `plan` (`None` = clean run), detecting and recovering per `cfg`.
///
/// Only the event- and memory-layer fault kinds inject here
/// ([`FaultKind::DropEvent`], [`FaultKind::DuplicateEvent`],
/// [`FaultKind::DelayEvent`], [`FaultKind::BitFlip`]); backend-specific
/// kinds are handled by the [`guard`](crate::guard) wrappers and the
/// campaign. A plan of another kind runs clean.
pub fn run_chaos<A, G>(
    algo: &A,
    graph: &G,
    plan: Option<FaultPlan>,
    cfg: &ChaosConfig,
) -> ChaosOutcome
where
    A: DeltaAlgorithm,
    A::Value: Storable,
    G: GraphView,
{
    let n = graph.num_vertices();
    let (init_values, seeds) = initial_state(algo, graph);

    let mut out = ChaosOutcome {
        values: Vec::new(),
        detections: Vec::new(),
        rollbacks: 0,
        degraded: false,
        quarantined: Vec::new(),
        checkpoints: 0,
        checkpoint_words: 0,
        checkpoint_bytes: 0,
        events: EventCounts::default(),
        wasted_events: 0,
        epochs: 0,
        unrecovered: None,
    };
    if n == 0 {
        return out;
    }

    let shadow = ShadowChecksum::new(&init_values, REGION_LEN);
    let mut st = ExecState::<A> {
        values: init_values.clone(),
        pending: vec![None; n],
        worklist: VecDeque::new(),
        shadow: shadow.clone(),
        totals: EventCounts::default(),
        epoch: EventCounts::default(),
    };
    let mut inj = Injector::<A::Delta> {
        plan,
        fired: 0,
        delay: Vec::new(),
        last_inject: None,
    };
    let flip = plan
        .filter(|p| p.kind == FaultKind::BitFlip)
        .map(|p| BitUpset::from_seed(p.seed, n));

    // The initial checkpoint pins the clean post-seeding state (epoch 0,
    // full seed queue) so even a fault in the very first epoch has a
    // rollback target.
    let mut ckpt = Checkpoint::<A> {
        epoch: 0,
        values: init_values,
        queue: seeds.iter().map(|&(v, d)| (v.get(), d)).collect(),
        totals: EventCounts {
            generated: seeds.len() as u64,
            ..EventCounts::default()
        },
        shadow,
    };
    out.checkpoints += 1;
    let ckpt_words = (n + 2 * ckpt.queue.len()) as u64;
    out.checkpoint_words += ckpt_words;
    out.checkpoint_bytes += checkpoint_bytes(ckpt_words as usize);

    let mut verify_every = cfg.verify_every.max(1);
    let mut logical = 0u64; // epoch position on the current attempt
    let mut attempt = 1u32;
    let mut seeds_fresh = true; // deposit seeds through the injector once
    let mut quarantine_hits: std::collections::HashMap<usize, u32> =
        std::collections::HashMap::new();

    'run: loop {
        // ---- epoch open ----
        st.epoch = EventCounts::default();
        let carry_in = st.worklist.len() as u64;

        // Redeliver delayed events due this epoch (uncounted inflow: the
        // "network" resurfaces them, which the surplus check catches).
        let mut due = Vec::new();
        inj.delay.retain(|&(release, v, d)| {
            if release <= logical {
                due.push((v, d));
                false
            } else {
                true
            }
        });
        for (v, d) in due {
            st.raw_insert(algo, v, d);
        }

        // Memory-layer injection: a bit upset at this epoch boundary,
        // bypassing the apply path (and the shadow). Quarantined regions
        // are remapped to healthy storage, so upsets there are absorbed.
        if let (Some(plan), Some(upset)) = (inj.armed(FaultKind::BitFlip), flip) {
            if logical == plan.flip_epoch()
                && !out.quarantined.contains(&st.shadow.region_of(upset.index))
            {
                inj.fired += 1;
                inj.last_inject = Some(out.epochs);
                upset.apply(&mut st.values);
            }
        }

        if seeds_fresh {
            // Seeds flow through the same injection layer as propagated
            // events, so a fault can hit the cold-start sweep itself.
            seeds_fresh = false;
            for &(v, d) in &seeds {
                deposit(&mut st, &mut inj, algo, logical, out.epochs, v.get(), d);
            }
        }

        // ---- process up to EPOCH_EVENTS events, FIFO ----
        let mut popped = 0usize;
        while popped < EPOCH_EVENTS {
            let Some(u) = st.worklist.pop_front() else {
                break;
            };
            popped += 1;
            let delta = st.pending[u as usize]
                .take()
                .expect("worklist entry without delta");
            st.epoch.processed += 1;
            st.totals.processed += 1;
            let (uid, old) = (VertexId::new(u), st.values[u as usize]);
            let basis = apply_event(algo, &mut st.values, uid, delta);
            st.shadow
                .record_write(u as usize, old, st.values[u as usize]);
            if let Some(basis) = basis {
                for_each_propagated(algo, graph, uid, basis, |v, d| {
                    deposit(&mut st, &mut inj, algo, logical, out.epochs, v.get(), d);
                });
            }
        }
        out.epochs += 1;

        // ---- detectors ----
        let carry_out = st.worklist.len() as u64;
        let converged = st.worklist.is_empty() && inj.delay.is_empty();
        let verify_now = (logical + 1).is_multiple_of(verify_every) || converged;

        let mut detection: Option<(Detector, String, Option<usize>)> = None;
        if let Err(msg) = check_epoch_conservation(st.epoch, carry_in, carry_out) {
            detection = Some((Detector::EventConservation, msg, None));
        } else if verify_now {
            if let Err((region, msg)) = st.shadow.scrub(&st.values) {
                detection = Some((Detector::MemoryScrub, msg, Some(region)));
            }
        }
        if detection.is_none() && out.epochs > MAX_EPOCHS {
            detection = Some((
                Detector::ConvergenceBudget,
                format!(
                    "convergence watchdog: {} epochs executed without reaching a \
                     fixed point (budget {})",
                    out.epochs, MAX_EPOCHS
                ),
                None,
            ));
        }

        match detection {
            None => {
                if verify_now && !converged {
                    // Clean verified epoch: checkpoint it.
                    ckpt = Checkpoint {
                        epoch: logical + 1,
                        values: st.values.clone(),
                        queue: st.queue_snapshot(),
                        totals: st.totals,
                        shadow: st.shadow.clone(),
                    };
                    out.checkpoints += 1;
                    let words = (n + 2 * ckpt.queue.len()) as u64;
                    out.checkpoint_words += words;
                    out.checkpoint_bytes += checkpoint_bytes(words as usize);
                }
                if converged {
                    break 'run;
                }
                logical += 1;
            }
            Some((detector, message, region)) => {
                let latency = inj
                    .last_inject
                    .map_or(0, |t| out.epochs.saturating_sub(1).saturating_sub(t));
                out.detections.push(Detection {
                    epoch: out.epochs - 1,
                    attempt,
                    detector,
                    latency_epochs: latency,
                    message: message.clone(),
                });
                if let Some(r) = region {
                    let hits = quarantine_hits.entry(r).or_insert(0);
                    *hits += 1;
                    if *hits >= QUARANTINE_THRESHOLD && !out.quarantined.contains(&r) {
                        out.quarantined.push(r);
                    }
                }
                let stuck = detector == Detector::ConvergenceBudget;
                if !stuck && out.rollbacks < cfg.max_retries {
                    // Rollback-and-retry under backoff: verify (and
                    // checkpoint) more often on each successive attempt.
                    out.wasted_events += st.totals.processed - ckpt.totals.processed;
                    st.restore(&ckpt);
                    inj.delay.clear();
                    logical = ckpt.epoch;
                    out.rollbacks += 1;
                    attempt += 1;
                    verify_every = (verify_every / 2).max(1);
                } else if cfg.degrade {
                    // Retries exhausted (or retrying is pointless): hand
                    // the last good checkpoint to the golden engine. Its
                    // queue is in the checkpoint's `generated` already, so
                    // golden's count of it as seeds is taken back out.
                    out.wasted_events += st.totals.processed - ckpt.totals.processed;
                    let mut values = ckpt.values.clone();
                    let seeds: Vec<(VertexId, A::Delta)> = ckpt
                        .queue
                        .iter()
                        .map(|&(v, d)| (VertexId::new(v), d))
                        .collect();
                    let golden = run_sequential_seeded(algo, graph, &mut values, &seeds);
                    out.degraded = true;
                    out.events = ckpt.totals;
                    out.events += EventCounts {
                        generated: golden.events_generated - seeds.len() as u64,
                        coalesced: golden.events_generated - golden.events_processed,
                        processed: golden.events_processed,
                    };
                    out.values = golden.values;
                    return out;
                } else {
                    out.unrecovered = Some(message);
                    break 'run;
                }
            }
        }
    }

    out.events = st.totals;
    out.values = st.values.iter().map(|&v| algo.value_to_f64(v)).collect();
    out
}
