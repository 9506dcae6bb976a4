//! Energy and area model (Table V of the paper).
//!
//! The paper synthesizes its RTL at 28 nm (logic + network) and models the
//! 64 MB queue memory with CACTI 7 at 22 nm. We reproduce the same
//! *structure*: static power per component instance, dynamic energy per
//! access integrated from simulation counters, and fixed area figures. The
//! per-access energies below are calibrated so that the paper's
//! PageRank-on-LiveJournal activity levels land near Table V's dynamic
//! numbers; they are documented constants, not measurements.

use crate::AcceleratorConfig;

/// Per-access energies (nanojoules) and static power (milliwatts) for each
/// accelerator component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Static power of one queue bin (mW). Table V lists 116 mW static per
    /// bin × 64 bins ≈ the ~9 W the paper quotes for the queue memory.
    pub queue_static_mw_per_bin: f64,
    /// Energy per queue slot read or write (nJ) — eDRAM macro access.
    pub queue_access_nj: f64,
    /// Energy per coalescer pipeline operation (nJ) — FP add.
    pub coalesce_op_nj: f64,
    /// Static power of one scratchpad (mW). Table V: 0.35 mW each.
    pub scratchpad_static_mw: f64,
    /// Energy per scratchpad access (nJ).
    pub scratchpad_access_nj: f64,
    /// Static power of the whole network (mW). Table V: 51.3 mW.
    pub network_static_mw: f64,
    /// Energy per event traversal of the crossbar (nJ).
    pub network_flit_nj: f64,
    /// Energy per event-processor operation (apply + bookkeeping), nJ.
    pub proc_op_nj: f64,
    /// Area of the queue memory, mm² (Table V: 190 mm²).
    pub queue_area_mm2: f64,
    /// Area of the scratchpads, mm² (Table V: 0.21 mm²).
    pub scratchpad_area_mm2: f64,
    /// Area of the network, mm² (Table V: 3.10 mm²).
    pub network_area_mm2: f64,
    /// Area of the processing logic, mm² (Table V: 0.44 mm²).
    pub processing_area_mm2: f64,
}

impl EnergyModel {
    /// Constants calibrated against Table V (22 nm eDRAM queue, 28 nm
    /// logic, 1 GHz).
    pub fn paper() -> Self {
        EnergyModel {
            queue_static_mw_per_bin: 116.0,
            queue_access_nj: 0.05,
            coalesce_op_nj: 0.004,
            scratchpad_static_mw: 0.35,
            scratchpad_access_nj: 0.002,
            network_static_mw: 51.3,
            network_flit_nj: 0.003,
            proc_op_nj: 0.005,
            queue_area_mm2: 190.0,
            scratchpad_area_mm2: 0.21,
            network_area_mm2: 3.10,
            processing_area_mm2: 0.44,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Activity counters fed into the model by the machine.
#[derive(Debug, Default, Clone, Copy)]
pub struct ActivityCounters {
    /// Queue slot reads (insert probes + drains).
    pub queue_reads: u64,
    /// Queue slot writes (inserts + coalesced updates).
    pub queue_writes: u64,
    /// Coalescer pipeline operations.
    pub coalesce_ops: u64,
    /// Scratchpad reads + writes.
    pub scratchpad_accesses: u64,
    /// Crossbar traversals.
    pub network_flits: u64,
    /// Processor apply operations.
    pub proc_ops: u64,
}

impl ActivityCounters {
    /// Accumulates another machine's activity (parallel-run merge).
    pub fn merge(&mut self, other: &ActivityCounters) {
        self.queue_reads += other.queue_reads;
        self.queue_writes += other.queue_writes;
        self.coalesce_ops += other.coalesce_ops;
        self.scratchpad_accesses += other.scratchpad_accesses;
        self.network_flits += other.network_flits;
        self.proc_ops += other.proc_ops;
    }
}

/// Per-component power/area rows, Table V style.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// `(component, count, static mW, dynamic mW, total mW, area mm²)` rows.
    pub rows: Vec<ComponentPower>,
    /// Total average power in mW.
    pub total_mw: f64,
    /// Total energy in mJ over the run.
    pub total_mj: f64,
    /// Total area in mm².
    pub total_area_mm2: f64,
    /// Run duration in seconds the averages refer to.
    pub seconds: f64,
    /// The activity the dynamic figures were integrated from, kept so
    /// per-shard reports merge exactly (sum the counters, integrate again).
    pub activity: ActivityCounters,
}

/// One row of the Table V style breakdown.
#[derive(Debug, Clone)]
pub struct ComponentPower {
    /// Component name.
    pub component: &'static str,
    /// Instance count.
    pub count: usize,
    /// Static power, mW (all instances).
    pub static_mw: f64,
    /// Dynamic power, mW (all instances, averaged over the run).
    pub dynamic_mw: f64,
    /// Area, mm² (all instances).
    pub area_mm2: f64,
}

impl ComponentPower {
    /// Static + dynamic power, mW.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }
}

impl EnergyReport {
    /// The paper-model report of a run of `cycles` on the machine `cfg`
    /// describes.
    pub(crate) fn for_run(
        cfg: &AcceleratorConfig,
        activity: ActivityCounters,
        cycles: u64,
    ) -> Self {
        Self::from_activity(
            &EnergyModel::paper(),
            &activity,
            cfg.cycles_to_seconds(cycles.max(1)),
            cfg.queue.bins,
            cfg.processors,
        )
    }

    /// Builds the report from activity counters over `seconds` of simulated
    /// time on a machine with `bins` queue bins and `processors` cores.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not positive.
    pub fn from_activity(
        model: &EnergyModel,
        activity: &ActivityCounters,
        seconds: f64,
        bins: usize,
        processors: usize,
    ) -> Self {
        assert!(seconds > 0.0, "run duration must be positive");
        let nj_to_mw = |nj: f64| nj * 1e-9 / seconds * 1e3; // nJ total → mW average

        let queue_dynamic = nj_to_mw(
            (activity.queue_reads + activity.queue_writes) as f64 * model.queue_access_nj
                + activity.coalesce_ops as f64 * model.coalesce_op_nj,
        );
        let scratch_dynamic =
            nj_to_mw(activity.scratchpad_accesses as f64 * model.scratchpad_access_nj);
        let network_dynamic = nj_to_mw(activity.network_flits as f64 * model.network_flit_nj);
        let proc_dynamic = nj_to_mw(activity.proc_ops as f64 * model.proc_op_nj);

        let rows = vec![
            ComponentPower {
                component: "Queue",
                count: bins,
                static_mw: model.queue_static_mw_per_bin * bins as f64,
                dynamic_mw: queue_dynamic,
                area_mm2: model.queue_area_mm2 * bins as f64 / 64.0,
            },
            ComponentPower {
                component: "Scratchpad",
                count: processors,
                static_mw: model.scratchpad_static_mw * processors as f64,
                dynamic_mw: scratch_dynamic,
                area_mm2: model.scratchpad_area_mm2 * processors as f64 / 8.0,
            },
            ComponentPower {
                component: "Network",
                count: 1,
                static_mw: model.network_static_mw,
                dynamic_mw: network_dynamic,
                area_mm2: model.network_area_mm2,
            },
            ComponentPower {
                component: "Processing Logic",
                count: processors,
                static_mw: 0.0,
                dynamic_mw: proc_dynamic,
                area_mm2: model.processing_area_mm2,
            },
        ];
        let total_mw: f64 = rows.iter().map(ComponentPower::total_mw).sum();
        let total_area_mm2: f64 = rows.iter().map(|r| r.area_mm2).sum();
        EnergyReport {
            rows,
            total_mw,
            total_mj: total_mw * seconds, // mW × s = mJ
            total_area_mm2,
            seconds,
            activity: *activity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> EnergyReport {
        let activity = ActivityCounters {
            queue_reads: 1_000_000,
            queue_writes: 1_000_000,
            coalesce_ops: 500_000,
            scratchpad_accesses: 2_000_000,
            network_flits: 1_500_000,
            proc_ops: 1_000_000,
        };
        EnergyReport::from_activity(&EnergyModel::paper(), &activity, 0.01, 64, 8)
    }

    #[test]
    fn queue_dominates_power_as_in_table_v() {
        let r = sample_report();
        let queue = &r.rows[0];
        assert_eq!(queue.component, "Queue");
        for other in &r.rows[1..] {
            assert!(queue.total_mw() > other.total_mw());
        }
    }

    #[test]
    fn totals_are_sums() {
        let r = sample_report();
        let sum: f64 = r.rows.iter().map(ComponentPower::total_mw).sum();
        assert!((r.total_mw - sum).abs() < 1e-9);
        assert!((r.total_mj - r.total_mw * 0.01).abs() < 1e-9);
        assert!(r.total_area_mm2 > 190.0);
    }

    #[test]
    fn dynamic_power_scales_with_activity() {
        let low = ActivityCounters::default();
        let r_low = EnergyReport::from_activity(&EnergyModel::paper(), &low, 0.01, 64, 8);
        let r_high = sample_report();
        assert!(r_high.total_mw > r_low.total_mw);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_rejected() {
        let _ = EnergyReport::from_activity(
            &EnergyModel::paper(),
            &ActivityCounters::default(),
            0.0,
            64,
            8,
        );
    }
}
